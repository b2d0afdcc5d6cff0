//! The correctness gate: served answers against a reference engine.

use prospector_core::{Prospector, QueryResult};
use prospector_obs::Json;

use crate::plan::{Call, Planted, Req};

/// Suggestions a served answer carries (`ServeOptions::default().max`).
const TOP: usize = 5;

/// The reference engine: the same snapshot, result cache off, queried
/// through `Prospector::query` / `Prospector::assist`.
pub struct Reference {
    engine: Prospector,
}

/// What an answer is compared on.
#[derive(Debug, PartialEq)]
struct Answer {
    shortest: Option<u64>,
    found: u64,
    top: Vec<String>,
}

/// A served body as JSON text: a whole body, or the bare
/// `"shortest"`…`"suggestions"` fields `hot_repeat` keeps per key.
fn object_text(body: &[u8]) -> String {
    let text = String::from_utf8_lossy(body);
    if text.starts_with('{') {
        text.into_owned()
    } else {
        format!("{{{text}}}")
    }
}

fn served(body: &[u8]) -> Result<Answer, String> {
    let json = Json::parse(&object_text(body)).map_err(|e| format!("unparsable answer: {e:?}"))?;
    let shortest = match json.get("shortest") {
        Some(Json::Null) => None,
        Some(n) => Some(n.as_u64().ok_or("non-integer `shortest`")?),
        None => return Err("no `shortest`".to_owned()),
    };
    let found = json
        .get("found")
        .and_then(Json::as_u64)
        .ok_or("no `found`")?;
    let top = json
        .get("suggestions")
        .and_then(Json::as_arr)
        .ok_or("no `suggestions`")?
        .iter()
        .map(|s| s.as_str().map(str::to_owned).ok_or("non-string suggestion"))
        .collect::<Result<_, _>>()?;
    Ok(Answer {
        shortest,
        found,
        top,
    })
}

fn expected(result: &QueryResult) -> Answer {
    Answer {
        shortest: result.shortest.map(u64::from),
        found: result.suggestions.len() as u64,
        top: result
            .suggestions
            .iter()
            .take(TOP)
            .map(|s| s.code.clone())
            .collect(),
    }
}

impl Reference {
    pub fn load(snapshot: &str) -> Result<Reference, String> {
        let (mut engine, _) = prospector_registry::load_engine(snapshot, true)?;
        engine.cache_results = false;
        Ok(Reference { engine })
    }

    fn answer(&self, req: &Req) -> Result<QueryResult, String> {
        let types = self.engine.api().types();
        let ty = |name: &str| types.resolve(name).map_err(|e| e.to_string());
        match &req.call {
            Call::Query { tin, tout } => self
                .engine
                .query(ty(tin)?, ty(tout)?)
                .map_err(|e| e.to_string()),
            Call::Assist { vars, tout } => {
                let visible = vars
                    .iter()
                    .map(|(name, t)| Ok((name.as_str(), ty(t)?)))
                    .collect::<Result<Vec<_>, String>>()?;
                self.engine
                    .assist(&visible, ty(tout)?)
                    .map_err(|e| e.to_string())
            }
        }
    }

    /// Compares a served body (or its `"shortest"`…`"suggestions"` part)
    /// with the reference answer to the same request.
    pub fn compare(&self, req: &Req, body: &[u8]) -> Result<(), String> {
        let got = served(body)?;
        let want = expected(&self.answer(req)?);
        if got == want {
            Ok(())
        } else {
            Err(format!(
                "{}: served {got:?}, reference {want:?}",
                req.target()
            ))
        }
    }
}

/// Whether a served body's top suggestion walks the planted chain.
pub fn precise(planted: &Planted, body: &[u8]) -> bool {
    Json::parse(&object_text(body))
        .ok()
        .and_then(|j| {
            j.get("suggestions")?
                .as_arr()?
                .first()?
                .as_str()
                .map(|top| planted.matches(top))
        })
        .unwrap_or(false)
}
