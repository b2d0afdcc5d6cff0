//! The seeded request streams of the three workloads.
//!
//! Every request is a pure function of `(seed, stream index)`, so a run's
//! timed phase sends requests `0..n` of one fixed stream whatever the
//! connection interleaving, and the traced replay can rebuild any of them.

use prospector_obs::{Json, SmallRng};

/// The workloads, each isolating one layer of the serve path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// 64 repeated `/query` keys, all result-cache hits after warm-up.
    HotRepeat,
    /// `/query` with a never-seen `tout` each time: both caches miss.
    ColdTargets,
    /// `/assist` over 2–6 visible variables and 32 warmed targets.
    AssistScope,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::HotRepeat,
        Workload::ColdTargets,
        Workload::AssistScope,
    ];

    pub fn parse(name: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| {
                format!("unknown workload `{name}` (hot_repeat, cold_targets, assist_scope)")
            })
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::HotRepeat => "hot_repeat",
            Workload::ColdTargets => "cold_targets",
            Workload::AssistScope => "assist_scope",
        }
    }

    /// One request in this many (seeded) keeps its body for the
    /// after-run reference comparison. `hot_repeat` checks every
    /// response through its per-key answer variants instead.
    pub fn sample_every(self) -> u64 {
        match self {
            Workload::HotRepeat => 1,
            // Each reference answer costs a full BFS here (~7 ms).
            Workload::ColdTargets => 16,
            Workload::AssistScope => 64,
        }
    }
}

/// Keys in the `hot_repeat` set: every planted chain plus seeded bulk
/// pairs, well inside the engine's 512-entry result cache.
pub const HOT_KEYS: usize = 64;
/// Warmed `/assist` targets, well inside the 256-entry distance cache.
const POPULAR_TARGETS: usize = 32;
/// Fresh-target requests `cold_targets` sends before its timed phase.
const COLD_WARMUP: usize = 32;

/// One planted ground-truth chain, as the generator reported it.
#[derive(Clone, Debug)]
pub struct Planted {
    pub tin: String,
    pub tout: String,
    pub hops: Vec<String>,
}

impl Planted {
    pub fn from_json(json: &Json) -> Option<Planted> {
        Some(Planted {
            tin: json.get("tin")?.as_str()?.to_owned(),
            tout: json.get("tout")?.as_str()?.to_owned(),
            hops: json
                .get("hops")?
                .as_arr()?
                .iter()
                .map(|h| h.as_str().map(str::to_owned))
                .collect::<Option<_>>()?,
        })
    }

    /// Whether `top` uses every planted hop, in order.
    pub fn matches(&self, top: &str) -> bool {
        self.hops
            .iter()
            .try_fold(0usize, |from, hop| {
                top[from..]
                    .find(hop.as_str())
                    .map(|at| from + at + hop.len())
            })
            .is_some()
    }
}

/// An engine call as the server receives it.
#[derive(Clone, Debug)]
pub enum Call {
    Query {
        tin: String,
        tout: String,
    },
    Assist {
        vars: Vec<(String, String)>,
        tout: String,
    },
}

/// One request of a stream.
#[derive(Clone, Debug)]
pub struct Req {
    pub call: Call,
    /// Index into the `hot_repeat` key set.
    pub key: Option<usize>,
    /// Index into the planted chains, for planted queries.
    pub planted: Option<usize>,
}

impl Req {
    fn query(tin: String, tout: String) -> Req {
        Req {
            call: Call::Query { tin, tout },
            key: None,
            planted: None,
        }
    }

    /// The HTTP request target (path and query string).
    pub fn target(&self) -> String {
        match &self.call {
            Call::Query { tin, tout } => format!("/query?tin={tin}&tout={tout}"),
            Call::Assist { vars, tout } => {
                let mut t = String::from("/assist?");
                for (name, ty) in vars {
                    t.push_str("var=");
                    t.push_str(name);
                    t.push(':');
                    t.push_str(ty);
                    t.push('&');
                }
                t.push_str("tout=");
                t.push_str(tout);
                t
            }
        }
    }

    /// The request bytes the client writes.
    pub fn raw(&self) -> Vec<u8> {
        format!("GET {} HTTP/1.1\r\nHost: bench\r\n\r\n", self.target()).into_bytes()
    }

    /// Every type name the server resolves for this request, in order.
    pub fn type_names(&self) -> Vec<&str> {
        match &self.call {
            Call::Query { tin, tout } => vec![tin, tout],
            Call::Assist { vars, tout } => vars
                .iter()
                .map(|(_, ty)| ty.as_str())
                .chain([tout.as_str()])
                .collect(),
        }
    }
}

/// A seeded generator: stream `tag`, element `i`.
fn rng(seed: u64, tag: u64, i: u64) -> SmallRng {
    let mut mix = SmallRng::seed_from_u64(seed ^ tag.rotate_left(48));
    SmallRng::seed_from_u64(mix.next_u64() ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

const TAG_KEYS: u64 = 1;
const TAG_PERM: u64 = 2;
const TAG_STREAM: u64 = 3;
const TAG_SAMPLE: u64 = 4;
const TAG_POPULAR: u64 = 5;
const TAG_WARM: u64 = 6;

/// Everything a run derives from its seed besides the snapshot.
pub struct Plan {
    workload: Workload,
    seed: u64,
    pub planted: Vec<Planted>,
    bulk: usize,
    keys: Vec<Req>,
    /// `cold_targets`: a seeded permutation of bulk indices; the timed
    /// stream takes them in order, the warm-up from the far end.
    targets: Vec<u32>,
    popular: Vec<u32>,
}

fn syn(i: usize) -> String {
    format!("Syn{i}")
}

impl Plan {
    pub fn new(workload: Workload, seed: u64, bulk: usize, planted: Vec<Planted>) -> Plan {
        let mut keys: Vec<Req> = planted
            .iter()
            .enumerate()
            .map(|(k, p)| Req {
                planted: Some(k),
                ..Req::query(p.tin.clone(), p.tout.clone())
            })
            .collect();
        let mut r = rng(seed, TAG_KEYS, 0);
        while keys.len() < HOT_KEYS {
            let (a, b) = (r.gen_range(0..bulk), r.gen_range(0..bulk));
            if a != b {
                keys.push(Req::query(syn(a), syn(b)));
            }
        }
        for (k, key) in keys.iter_mut().enumerate() {
            key.key = Some(k);
        }
        let mut targets: Vec<u32> = Vec::new();
        if workload == Workload::ColdTargets {
            targets = (0..u32::try_from(bulk).expect("bulk types fit u32")).collect();
            let mut r = rng(seed, TAG_PERM, 0);
            for i in (1..targets.len()).rev() {
                targets.swap(i, r.gen_range(0..=i));
            }
        }
        let mut popular: Vec<u32> = Vec::with_capacity(POPULAR_TARGETS);
        let mut r = rng(seed, TAG_POPULAR, 0);
        while popular.len() < POPULAR_TARGETS.min(bulk) {
            let t = u32::try_from(r.gen_range(0..bulk)).expect("bulk types fit u32");
            if !popular.contains(&t) {
                popular.push(t);
            }
        }
        Plan {
            workload,
            seed,
            planted,
            bulk,
            keys,
            targets,
            popular,
        }
    }

    /// The untimed warm-up pass, sent before the timed phase.
    pub fn warmup(&self) -> Vec<Req> {
        match self.workload {
            Workload::HotRepeat => self.keys.clone(),
            Workload::ColdTargets => (0..COLD_WARMUP.min(self.targets.len() / 2))
                .map(|w| {
                    let tout = self.targets[self.targets.len() - 1 - w] as usize;
                    self.cold_query(tout, rng(self.seed, TAG_WARM, w as u64))
                })
                .collect(),
            Workload::AssistScope => (0..self.popular.len())
                .map(|w| self.assist(self.popular[w] as usize, rng(self.seed, TAG_WARM, w as u64)))
                .collect(),
        }
    }

    /// Request `i` of the timed stream; `None` once `cold_targets` has
    /// used every fresh target.
    pub fn timed(&self, i: u64) -> Option<Req> {
        let mut r = rng(self.seed, TAG_STREAM, i);
        match self.workload {
            Workload::HotRepeat => Some(self.keys[r.gen_range(0..self.keys.len())].clone()),
            Workload::ColdTargets => {
                let limit = self.targets.len() - COLD_WARMUP.min(self.targets.len() / 2);
                let i = usize::try_from(i).ok().filter(|&i| i < limit)?;
                Some(self.cold_query(self.targets[i] as usize, r))
            }
            Workload::AssistScope => {
                let tout = self.popular[r.gen_range(0..self.popular.len())] as usize;
                Some(self.assist(tout, r))
            }
        }
    }

    /// Key `k` of the `hot_repeat` set.
    pub fn key(&self, k: usize) -> &Req {
        &self.keys[k]
    }

    /// Whether request `i` keeps its body for the reference comparison.
    pub fn sampled(&self, i: u64) -> bool {
        rng(self.seed, TAG_SAMPLE, i)
            .next_u64()
            .is_multiple_of(self.workload.sample_every())
    }

    /// The planted chains as `/query` requests (the after-run precision
    /// pass every workload makes).
    pub fn planted_queries(&self) -> Vec<Req> {
        self.keys
            .iter()
            .filter(|k| k.planted.is_some())
            .cloned()
            .collect()
    }

    fn cold_query(&self, tout: usize, mut r: SmallRng) -> Req {
        let mut tin = r.gen_range(0..self.bulk);
        if tin == tout {
            tin = (tin + 1) % self.bulk;
        }
        Req::query(syn(tin), syn(tout))
    }

    fn assist(&self, tout: usize, mut r: SmallRng) -> Req {
        let vars = (0..r.gen_range(2..=6))
            .map(|v| (format!("v{v}"), syn(r.gen_range(0..self.bulk))))
            .collect();
        Req {
            call: Call::Assist {
                vars,
                tout: syn(tout),
            },
            key: None,
            planted: None,
        }
    }
}
