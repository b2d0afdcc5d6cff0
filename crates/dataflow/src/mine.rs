//! The backward, interprocedural, flow-insensitive example extractor
//! (§4.2).

use std::collections::HashSet;

use jungloid_apidef::elem::elems_of_method;
use jungloid_apidef::{Api, ElemJungloid, InputSlot};
use jungloid_typesys::TyId;
use prospector_obs::Counter;

use crate::lower::{LoweredCorpus, Val, ValKind};

/// Extraction limits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MinerConfig {
    /// Maximum example jungloids per cast site (the paper caps this to
    /// avoid the gigabytes-of-examples blowup it reports).
    pub max_examples_per_cast: usize,
    /// Maximum elementary jungloids per example.
    pub max_steps: usize,
    /// Walk-invocation budget per cast site (backstop against path
    /// explosion before the per-cast cap bites).
    pub max_expansions: usize,
    /// Mine cast sites on multiple threads.
    pub parallel: bool,
}

impl Default for MinerConfig {
    fn default() -> Self {
        MinerConfig {
            max_examples_per_cast: 64,
            max_steps: 16,
            max_expansions: 50_000,
            parallel: true,
        }
    }
}

/// What mining produced.
#[derive(Clone, Debug, Default)]
pub struct MineReport {
    /// Extracted example jungloids (deduplicated), each ending in a
    /// downcast.
    pub examples: Vec<Vec<ElemJungloid>>,
    /// Number of downcast seeds examined.
    pub cast_sites: usize,
    /// Seeds whose extraction hit the per-cast cap or budget.
    pub capped_casts: usize,
}

/// The example-jungloid extractor.
#[derive(Debug)]
pub struct Miner<'a> {
    api: &'a Api,
    corpus: &'a LoweredCorpus,
    /// Limits.
    pub config: MinerConfig,
}

impl<'a> Miner<'a> {
    /// A miner over a lowered corpus.
    #[must_use]
    pub fn new(api: &'a Api, corpus: &'a LoweredCorpus) -> Self {
        Miner { api, corpus, config: MinerConfig::default() }
    }

    /// Extracts example jungloids from every downcast site.
    #[must_use]
    pub fn mine(&self) -> MineReport {
        // Seeds: every cast whose target strictly narrows its operand.
        let mut seeds: Vec<(usize, usize, &Val)> = Vec::new();
        for (ci, class) in self.corpus.classes.iter().enumerate() {
            for (mi, method) in class.methods.iter().enumerate() {
                for cast in &method.casts {
                    let ValKind::Cast { to, val } = &cast.kind else { continue };
                    if *to != val.ty && self.api.types().is_subtype(*to, val.ty) {
                        seeds.push((ci, mi, cast));
                    }
                }
            }
        }
        let run_seed = |&(ci, mi, cast): &(usize, usize, &Val)| {
            let mut walk = Walk {
                api: self.api,
                corpus: self.corpus,
                config: &self.config,
                expansions: 0,
                visited_vars: HashSet::new(),
                inlining: Vec::new(),
            };
            let partials = walk.walk(cast, ci, mi);
            let mut examples: Vec<Vec<ElemJungloid>> = Vec::new();
            for p in partials {
                // Leading widenings carry no code; dropping them makes the
                // example enter the graph at the widened-to (API-level)
                // type rather than at a corpus-private subclass.
                let mut steps = p.steps;
                while steps.first().is_some_and(ElemJungloid::is_widen) {
                    steps.remove(0);
                }
                if steps.last().is_some_and(ElemJungloid::is_downcast) && !examples.contains(&steps)
                {
                    examples.push(steps);
                }
            }
            let over_budget = walk.expansions >= self.config.max_expansions;
            let capped = examples.len() > self.config.max_examples_per_cast || over_budget;
            examples.truncate(self.config.max_examples_per_cast);
            (examples, capped)
        };

        let results: Vec<(Vec<Vec<ElemJungloid>>, bool)> =
            if self.config.parallel && seeds.len() >= 8 {
                let threads = std::thread::available_parallelism().map_or(4, usize::from).min(8);
                let chunk = seeds.len().div_ceil(threads);
                std::thread::scope(|scope| {
                    let handles: Vec<_> = seeds
                        .chunks(chunk)
                        .map(|part| scope.spawn(move || part.iter().map(run_seed).collect::<Vec<_>>()))
                        .collect();
                    handles.into_iter().flat_map(|h| h.join().expect("miner thread")).collect()
                })
            } else {
                seeds.iter().map(run_seed).collect()
            };

        let mut report = MineReport { examples: Vec::new(), cast_sites: seeds.len(), capped_casts: 0 };
        for (examples, capped) in results {
            if capped {
                report.capped_casts += 1;
            }
            for e in examples {
                if !report.examples.contains(&e) {
                    report.examples.push(e);
                }
            }
        }
        prospector_obs::add(Counter::MineCastSites, report.cast_sites as u64);
        prospector_obs::add(Counter::MineCappedCasts, report.capped_casts as u64);
        prospector_obs::add(Counter::MineExamples, report.examples.len() as u64);
        report
    }
}

/// What §4.3 parameter mining produced.
#[derive(Clone, Debug, Default)]
pub struct ParamMineReport {
    /// Extracted examples, each ending in the `Call` elementary whose
    /// weakly typed parameter the example feeds.
    pub examples: Vec<Vec<ElemJungloid>>,
    /// Number of weakly typed argument sites examined.
    pub arg_sites: usize,
}

impl Miner<'_> {
    /// The §4.3 extension: mine which values client code actually passes
    /// into parameters of the given types (typically `Object` and
    /// `String`). "The algorithms would be the same, with methods having
    /// Object or String parameters playing the role of downcasts": for
    /// each such argument position, the backward walk collects the
    /// sequences producing the argument, terminated by the call itself.
    #[must_use]
    pub fn mine_params(&self, weak_tys: &[TyId]) -> ParamMineReport {
        let mut report = ParamMineReport::default();
        for (ci, class) in self.corpus.classes.iter().enumerate() {
            for (mi, method) in class.methods.iter().enumerate() {
                let mut roots: Vec<&Val> = Vec::new();
                roots.extend(method.returns.iter());
                roots.extend(method.stmt_vals.iter());
                roots.extend(method.defs.values().flatten());
                let mut sites: Vec<(jungloid_apidef::MethodId, usize, &Val)> = Vec::new();
                for root in roots {
                    collect_weak_arg_sites(self.api, root, weak_tys, &mut sites);
                }
                for (target, slot, arg) in sites {
                    report.arg_sites += 1;
                    let mut walk = Walk {
                        api: self.api,
                        corpus: self.corpus,
                        config: &self.config,
                        expansions: 0,
                        visited_vars: HashSet::new(),
                        inlining: Vec::new(),
                    };
                    let terminal =
                        ElemJungloid::Call { method: target, input: Some(InputSlot::Arg(slot)) };
                    let mut found = 0usize;
                    for p in walk.walk(arg, ci, mi) {
                        // Skip trivial examples (literals straight into the
                        // parameter carry no usage information).
                        if p.steps.iter().all(ElemJungloid::is_widen) {
                            continue;
                        }
                        let Some(mut done) =
                            push_step(p, terminal, self.api, self.config.max_steps)
                        else {
                            continue;
                        };
                        while done.steps.first().is_some_and(ElemJungloid::is_widen) {
                            done.steps.remove(0);
                        }
                        if !report.examples.contains(&done.steps) {
                            report.examples.push(done.steps);
                            found += 1;
                            if found >= self.config.max_examples_per_cast {
                                break;
                            }
                        }
                    }
                }
            }
        }
        prospector_obs::add(Counter::MineArgSites, report.arg_sites as u64);
        prospector_obs::add(Counter::MineParamExamples, report.examples.len() as u64);
        report
    }
}

/// Finds every API call/constructor argument whose *declared* parameter
/// type is one of `weak_tys`, recursing through the value tree.
fn collect_weak_arg_sites<'v>(
    api: &Api,
    v: &'v Val,
    weak_tys: &[TyId],
    out: &mut Vec<(jungloid_apidef::MethodId, usize, &'v Val)>,
) {
    match &v.kind {
        ValKind::New { ctor, args } => {
            let def = api.method(*ctor);
            for (i, a) in args.iter().enumerate() {
                if def.params().get(i).is_some_and(|p| weak_tys.contains(p)) {
                    out.push((*ctor, i, a));
                }
                collect_weak_arg_sites(api, a, weak_tys, out);
            }
        }
        ValKind::ApiCall { method, recv, args } => {
            let def = api.method(*method);
            if let Some(r) = recv {
                collect_weak_arg_sites(api, r, weak_tys, out);
            }
            for (i, a) in args.iter().enumerate() {
                if def.params().get(i).is_some_and(|p| weak_tys.contains(p)) {
                    out.push((*method, i, a));
                }
                collect_weak_arg_sites(api, a, weak_tys, out);
            }
        }
        ValKind::ClientCall { args, .. } => {
            for a in args {
                collect_weak_arg_sites(api, a, weak_tys, out);
            }
        }
        ValKind::GetField { recv, .. } => collect_weak_arg_sites(api, recv, weak_tys, out),
        ValKind::Cast { val, .. } => collect_weak_arg_sites(api, val, weak_tys, out),
        _ => {}
    }
}

/// A backward-walk intermediate: the steps collected so far (in forward,
/// input-to-output order) and the type the partial currently produces.
#[derive(Clone, Debug)]
struct Partial {
    steps: Vec<ElemJungloid>,
    out_ty: TyId,
}

struct Walk<'a> {
    api: &'a Api,
    corpus: &'a LoweredCorpus,
    config: &'a MinerConfig,
    expansions: usize,
    /// `(class, method, var)` guard against cyclic def/param chasing.
    visited_vars: HashSet<(usize, usize, String)>,
    /// Inlining stack guard against mutually recursive client methods.
    inlining: Vec<(usize, usize)>,
}

impl Walk<'_> {
    /// All partials whose value can flow into `v`.
    fn walk(&mut self, v: &Val, ci: usize, mi: usize) -> Vec<Partial> {
        self.expansions += 1;
        if self.expansions >= self.config.max_expansions {
            return Vec::new();
        }
        match &v.kind {
            ValKind::Var(name) => self.walk_var(name, v.ty, ci, mi),
            ValKind::New { ctor, args } => self.walk_call(*ctor, None, args, ci, mi),
            ValKind::ApiCall { method, recv, args } => {
                let mut out = self.walk_call(*method, recv.as_deref(), args, ci, mi);
                // Second interpretation: inline client overrides (CHA).
                if let Some(r) = recv {
                    let def = self.api.method(*method);
                    for (oc, om) in
                        self.corpus.client_overrides(self.api, r.ty, def.name(), args.len())
                    {
                        out.extend(self.inline(oc, om, v.ty));
                    }
                }
                out
            }
            ValKind::ClientCall { class_idx, method_idx, .. } => {
                self.inline(*class_idx, *method_idx, v.ty)
            }
            ValKind::StaticField(f) => {
                let elem = ElemJungloid::FieldAccess { field: *f };
                vec![Partial { steps: vec![elem], out_ty: elem.output_ty(self.api) }]
            }
            ValKind::GetField { recv, field } => {
                let elem = ElemJungloid::FieldAccess { field: *field };
                let subs = self.walk(recv, ci, mi);
                self.append_all(subs, elem)
            }
            ValKind::Cast { to, val } => {
                let subs = self.walk(val, ci, mi);
                let mut out = Vec::new();
                for p in subs {
                    if p.out_ty == *to {
                        out.push(p); // cast redundant along this path
                    } else if self.api.types().is_subtype(*to, p.out_ty) {
                        let elem = ElemJungloid::Downcast { from: p.out_ty, to: *to };
                        if let Some(p2) = push_step(p, elem, self.api, self.config.max_steps) {
                            out.push(p2);
                        }
                    } else if self.api.types().is_subtype(p.out_ty, *to) {
                        let mut p2 = p;
                        p2.steps.push(ElemJungloid::Widen { from: p2.out_ty, to: *to });
                        p2.out_ty = *to;
                        out.push(p2);
                    }
                    // Unrelated types (e.g. cross-interface casts): drop.
                }
                out
            }
            ValKind::Str | ValKind::ClassLit => {
                vec![Partial { steps: Vec::new(), out_ty: v.ty }]
            }
            ValKind::Int | ValKind::Bool | ValKind::Null => Vec::new(),
        }
    }

    /// Defs within the method (flow-insensitive), plus parameter jumps to
    /// every call site (interprocedural); a parameter with no call sites
    /// terminates the walk at its declared type.
    fn walk_var(&mut self, name: &str, declared: TyId, ci: usize, mi: usize) -> Vec<Partial> {
        // The implicit receiver of an inherited API call: a zero-argument
        // terminal typed by the enclosing class.
        if name == "this" {
            return vec![Partial { steps: Vec::new(), out_ty: declared }];
        }
        let key = (ci, mi, name.to_owned());
        if !self.visited_vars.insert(key.clone()) {
            return Vec::new();
        }
        let method = &self.corpus.classes[ci].methods[mi];
        let mut out = Vec::new();
        if let Some(defs) = method.defs.get(name) {
            let defs = defs.clone();
            for def in &defs {
                out.extend(self.walk(def, ci, mi));
            }
        }
        if let Some(pos) = method.params.iter().position(|(n, _)| n == name) {
            let sites = self.corpus.call_sites(ci, mi).to_vec();
            if sites.is_empty() && out.is_empty() {
                out.push(Partial { steps: Vec::new(), out_ty: declared });
            } else {
                for site in &sites {
                    if let Some(arg) = site.args.get(pos) {
                        out.extend(self.walk(arg, site.caller_class, site.caller_method));
                    }
                }
            }
        }
        self.visited_vars.remove(&key);
        out
    }

    /// The first interpretation: the call as an elementary jungloid
    /// through each of its class-typed input slots (§2.1).
    fn walk_call(
        &mut self,
        method: jungloid_apidef::MethodId,
        recv: Option<&Val>,
        args: &[Val],
        ci: usize,
        mi: usize,
    ) -> Vec<Partial> {
        let mut out = Vec::new();
        for elem in elems_of_method(self.api, method) {
            let ElemJungloid::Call { input, .. } = elem else { continue };
            match input {
                None => out.push(Partial { steps: vec![elem], out_ty: elem.output_ty(self.api) }),
                Some(InputSlot::Receiver) => {
                    if let Some(r) = recv {
                        let subs = self.walk(r, ci, mi);
                        out.extend(self.append_all(subs, elem));
                    }
                }
                Some(InputSlot::Arg(i)) => {
                    if let Some(a) = args.get(i) {
                        let subs = self.walk(a, ci, mi);
                        out.extend(self.append_all(subs, elem));
                    }
                }
            }
        }
        out
    }

    /// The second interpretation: inline a client method, walking its
    /// return values. Parameters inside the callee jump back out through
    /// the global call-site index.
    fn inline(&mut self, ci: usize, mi: usize, expect_ty: TyId) -> Vec<Partial> {
        if self.inlining.contains(&(ci, mi)) {
            return Vec::new();
        }
        self.inlining.push((ci, mi));
        let returns = self.corpus.classes[ci].methods[mi].returns.clone();
        let mut out = Vec::new();
        for r in &returns {
            for p in self.walk(r, ci, mi) {
                // Glue the callee's produced type to the caller's expected
                // static type if they differ by widening.
                if p.out_ty == expect_ty || self.api.types().is_subtype(p.out_ty, expect_ty) {
                    out.push(p);
                }
            }
        }
        self.inlining.pop();
        out
    }

    fn append_all(&self, subs: Vec<Partial>, elem: ElemJungloid) -> Vec<Partial> {
        subs.into_iter()
            .filter_map(|p| push_step(p, elem, self.api, self.config.max_steps))
            .collect()
    }
}

/// Appends `elem` to a partial, inserting a widening conversion when the
/// partial's current type is a strict subtype of the step's input type;
/// drops the path if the types are incompatible or the step budget is
/// exceeded.
fn push_step(mut p: Partial, elem: ElemJungloid, api: &Api, max_steps: usize) -> Option<Partial> {
    let expect = elem.input_ty(api);
    if p.out_ty != expect {
        if api.types().is_subtype(p.out_ty, expect) {
            p.steps.push(ElemJungloid::Widen { from: p.out_ty, to: expect });
        } else {
            return None;
        }
    }
    p.steps.push(elem);
    p.out_ty = elem.output_ty(api);
    if p.steps.iter().filter(|e| !e.is_widen()).count() > max_steps {
        return None;
    }
    Some(p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::LoweredCorpus;
    use jungloid_apidef::ApiLoader;
    use jungloid_minijava::parse::parse_unit;

    fn api() -> Api {
        let mut loader = ApiLoader::with_prelude();
        loader
            .add_source(
                "debug.api",
                r"
                package ui;
                public interface ISelection { boolean isEmpty(); }
                public interface IStructuredSelection extends ISelection { Object getFirstElement(); }
                public class Viewer { ISelection getSelection(); Object getInput(); }
                public interface IDebugView { Viewer getViewer(); }
                public class JavaInspectExpression {}
                public class WorkbenchPlugin {
                    static IDebugView getActiveDebugView();
                }
                ",
            )
            .unwrap();
        loader.finish().unwrap()
    }

    fn mine_src(src: &str) -> (Api, MineReport) {
        let mut api = api();
        let unit = parse_unit("client.mj", src).unwrap();
        let corpus = LoweredCorpus::lower(&mut api, &[unit]).unwrap();
        let mut miner = Miner::new(&api, &corpus);
        miner.config.parallel = false;
        let report = miner.mine();
        (api, report)
    }

    fn describe(api: &Api, e: &[ElemJungloid]) -> String {
        e.iter().map(|s| s.label(api)).collect::<Vec<_>>().join(" . ")
    }

    #[test]
    fn figure2_examples_extracted() {
        let (api, report) = mine_src(
            r#"
            package corpus;
            class DebugHelper {
                Object selected(IDebugView debugger) {
                    Viewer viewer = debugger.getViewer();
                    IStructuredSelection sel = (IStructuredSelection) viewer.getSelection();
                    JavaInspectExpression expr = (JavaInspectExpression) sel.getFirstElement();
                    return expr;
                }
            }
            "#,
        );
        assert_eq!(report.cast_sites, 2);
        assert_eq!(report.capped_casts, 0);
        let descs: Vec<String> = report.examples.iter().map(|e| describe(&api, e)).collect();
        // The inner cast's example: getViewer . getSelection . (IStructuredSelection)
        assert!(
            descs.iter().any(|d| d
                == "IDebugView.getViewer . Viewer.getSelection . (IStructuredSelection)"),
            "got {descs:?}"
        );
        // The outer cast's example chains through the first cast.
        assert!(
            descs.iter().any(|d| d.ends_with(
                "(IStructuredSelection) . IStructuredSelection.getFirstElement . (JavaInspectExpression)"
            )),
            "got {descs:?}"
        );
        // Every example ends in a downcast and is well-typed when spliced.
        for e in &report.examples {
            assert!(e.last().unwrap().is_downcast());
        }
    }

    #[test]
    fn flow_insensitive_defs_branch() {
        let (api, report) = mine_src(
            r#"
            package corpus;
            class Multi {
                IStructuredSelection pick(Viewer a, Viewer b) {
                    ISelection s = a.getSelection();
                    s = b.getSelection();
                    return (IStructuredSelection) s;
                }
            }
            "#,
        );
        // Both defs reach the cast, but they produce the same elementary
        // steps (receiver slot of getSelection), so one example remains.
        assert_eq!(report.cast_sites, 1);
        assert_eq!(report.examples.len(), 1);
        assert_eq!(
            describe(&api, &report.examples[0]),
            "Viewer.getSelection . (IStructuredSelection)"
        );
    }

    #[test]
    fn interprocedural_param_jump() {
        let (api, report) = mine_src(
            r#"
            package corpus;
            class Helper {
                IStructuredSelection narrow(ISelection s) {
                    return (IStructuredSelection) s;
                }
                IStructuredSelection use(IDebugView d) {
                    return narrow(d.getViewer().getSelection());
                }
            }
            "#,
        );
        assert_eq!(report.cast_sites, 1);
        let descs: Vec<String> = report.examples.iter().map(|e| describe(&api, e)).collect();
        // The cast's operand is parameter `s`; its value comes from the
        // call site in `use`, giving the full chain.
        assert!(
            descs.contains(
                &"IDebugView.getViewer . Viewer.getSelection . (IStructuredSelection)".to_owned()
            ),
            "got {descs:?}"
        );
    }

    #[test]
    fn param_without_call_sites_terminates() {
        let (api, report) = mine_src(
            r#"
            package corpus;
            class Lone {
                IStructuredSelection narrow(ISelection s) {
                    return (IStructuredSelection) s;
                }
            }
            "#,
        );
        assert_eq!(report.examples.len(), 1);
        assert_eq!(describe(&api, &report.examples[0]), "(IStructuredSelection)");
    }

    #[test]
    fn client_inlining_interpretation() {
        let (api, report) = mine_src(
            r#"
            package corpus;
            class Inline {
                Viewer fetch(IDebugView d) {
                    return d.getViewer();
                }
                IStructuredSelection go(IDebugView d) {
                    ISelection s = fetch(d).getSelection();
                    return (IStructuredSelection) s;
                }
            }
            "#,
        );
        let descs: Vec<String> = report.examples.iter().map(|e| describe(&api, e)).collect();
        // Inlining `fetch` exposes getViewer.
        assert!(
            descs.contains(
                &"IDebugView.getViewer . Viewer.getSelection . (IStructuredSelection)".to_owned()
            ),
            "got {descs:?}"
        );
    }

    #[test]
    fn zero_arg_static_terminates() {
        let (api, report) = mine_src(
            r#"
            package corpus;
            class Zero {
                IStructuredSelection go() {
                    ISelection s = WorkbenchPlugin.getActiveDebugView().getViewer().getSelection();
                    return (IStructuredSelection) s;
                }
            }
            "#,
        );
        let descs: Vec<String> = report.examples.iter().map(|e| describe(&api, e)).collect();
        assert!(
            descs.contains(
                &"WorkbenchPlugin.getActiveDebugView . IDebugView.getViewer . Viewer.getSelection . (IStructuredSelection)"
                    .to_owned()
            ),
            "got {descs:?}"
        );
    }

    #[test]
    fn upcasts_are_not_seeds() {
        let (_, report) = mine_src(
            r#"
            package corpus;
            class Up {
                ISelection go(IStructuredSelection s) {
                    return (ISelection) s;
                }
            }
            "#,
        );
        assert_eq!(report.cast_sites, 0);
        assert!(report.examples.is_empty());
    }

    #[test]
    fn recursion_does_not_hang() {
        let (_, report) = mine_src(
            r#"
            package corpus;
            class Rec {
                ISelection spin(ISelection s) {
                    ISelection t = spin(s);
                    return t;
                    return s;
                }
                IStructuredSelection go(Viewer v) {
                    ISelection s = spin(v.getSelection());
                    return (IStructuredSelection) s;
                }
            }
            "#,
        );
        assert_eq!(report.cast_sites, 1);
        // The non-recursive path must still be found.
        assert!(!report.examples.is_empty());
    }

    #[test]
    fn cap_limits_examples() {
        // Eight parallel defs reaching one cast; cap at 3.
        let src = r#"
            package corpus;
            class Many {
                IStructuredSelection go(Viewer a, Viewer b, Viewer c, Viewer d, IDebugView e) {
                    ISelection s = a.getSelection();
                    s = b.getSelection();
                    s = c.getSelection();
                    s = d.getSelection();
                    s = e.getViewer().getSelection();
                    return (IStructuredSelection) s;
                }
            }
        "#;
        let mut api = api();
        let unit = parse_unit("client.mj", src).unwrap();
        let corpus = LoweredCorpus::lower(&mut api, &[unit]).unwrap();
        let mut miner = Miner::new(&api, &corpus);
        miner.config.parallel = false;
        miner.config.max_examples_per_cast = 1;
        let report = miner.mine();
        assert_eq!(report.examples.len(), 1);
        assert_eq!(report.capped_casts, 1);
    }

    #[test]
    fn parallel_and_serial_agree() {
        let src = r#"
            package corpus;
            class P {
                IStructuredSelection a(Viewer v) { return (IStructuredSelection) v.getSelection(); }
                IStructuredSelection b(IDebugView d) { return (IStructuredSelection) d.getViewer().getSelection(); }
                JavaInspectExpression c(IStructuredSelection s) { return (JavaInspectExpression) s.getFirstElement(); }
                IStructuredSelection d(Viewer v) { return (IStructuredSelection) v.getSelection(); }
                IStructuredSelection e(Viewer v) { return (IStructuredSelection) v.getSelection(); }
                IStructuredSelection f(Viewer v) { return (IStructuredSelection) v.getSelection(); }
                IStructuredSelection g(Viewer v) { return (IStructuredSelection) v.getSelection(); }
                IStructuredSelection h(Viewer v) { return (IStructuredSelection) v.getSelection(); }
            }
        "#;
        let mut api = api();
        let unit = parse_unit("client.mj", src).unwrap();
        let corpus = LoweredCorpus::lower(&mut api, &[unit]).unwrap();
        let mut miner = Miner::new(&api, &corpus);
        miner.config.parallel = false;
        let serial = miner.mine();
        miner.config.parallel = true;
        let parallel = miner.mine();
        let mut a = serial.examples.clone();
        let mut b = parallel.examples.clone();
        a.sort_by_key(|e| format!("{e:?}"));
        b.sort_by_key(|e| format!("{e:?}"));
        assert_eq!(a, b);
    }
}
