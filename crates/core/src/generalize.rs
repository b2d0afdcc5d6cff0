//! Generalization of mined example jungloids (§4.2).
//!
//! An extracted example often carries an unnecessary prefix (Figure 5/7):
//! the calls that *establish the typestate* making the final downcast
//! succeed are a suffix. The paper's rule: *"if there are two example
//! jungloids β.a.α.(T) and γ.b.α.(U) where a ≠ b and T ≠ U, then we must
//! retain a.α.(T) and b.α.(U)"* — i.e. keep the shortest suffix that
//! distinguishes an example from every example ending in a *different*
//! cast.
//!
//! The implementation follows the paper's O(n·k) sketch: store the
//! examples in a trie keyed by the *reversed* step sequence (cast first)
//! and cut each example at the first depth where the subtrie's examples
//! all end in the same cast target.

use std::collections::HashMap;

use jungloid_apidef::ElemJungloid;
use jungloid_typesys::TyId;
use prospector_obs::Counter;

/// One trie node over reversed pre-terminal step sequences.
#[derive(Debug, Default)]
struct TrieNode {
    children: HashMap<ElemJungloid, usize>,
    /// Distinct terminal discriminators of all examples passing through
    /// here.
    targets: Vec<Discriminator>,
}

/// What distinguishes two example terminals.
///
/// Downcasts are compared by *target type* (the paper's `T ≠ U` rule);
/// for the §4.3 extension — examples ending in a call whose
/// `Object`/`String` parameter the example feeds — the whole call
/// elementary is the discriminator.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Discriminator {
    Cast(TyId),
    Terminal(ElemJungloid),
}

/// Generalizes a set of example jungloids.
///
/// Every input must be a non-empty step sequence; sequences ending in a
/// downcast are generalized, all others are passed through unchanged
/// (extraction only emits cast-terminated examples, but synthetic corpora
/// in tests may not).
///
/// The result is deduplicated and each element is a suffix of some input.
///
/// Note the two behaviours §4.4 analyzes:
///
/// * with a *distinguishing* differently-cast example present, the common
///   part is kept (Figure 7's area II) — precision;
/// * with no conflicting example at all, the suffix shrinks to the bare
///   downcast — the documented overgeneralization when condition (b)
///   fails.
#[must_use]
pub fn generalize(examples: &[Vec<ElemJungloid>]) -> Vec<Vec<ElemJungloid>> {
    generalize_with(examples, |e| match e.last() {
        Some(ElemJungloid::Downcast { to, .. }) => Some(Discriminator::Cast(*to)),
        _ => None,
    })
}

/// Generalization for the §4.3 extension: *every* example's final step is
/// its discriminator — downcasts by target type, terminal calls (methods
/// whose `Object`/`String` parameter the example feeds) by the call
/// itself. "The algorithms would be the same, with methods having Object
/// or String parameters playing the role of downcasts."
///
/// One asymmetry: a call-terminated example never generalizes below one
/// body step. A bare `x.m(·)` suffix would mean "any Object works for
/// `m`" — precisely the imprecision §4.3 sets out to remove — whereas a
/// bare downcast merely restates a signature fact.
#[must_use]
pub fn generalize_terminal(examples: &[Vec<ElemJungloid>]) -> Vec<Vec<ElemJungloid>> {
    generalize_with(examples, |e| match e.last() {
        Some(ElemJungloid::Downcast { to, .. }) => Some(Discriminator::Cast(*to)),
        Some(&last) => Some(Discriminator::Terminal(last)),
        None => None,
    })
}

fn generalize_with(
    examples: &[Vec<ElemJungloid>],
    key_of: impl Fn(&Vec<ElemJungloid>) -> Option<Discriminator>,
) -> Vec<Vec<ElemJungloid>> {
    // Build the trie over reversed bodies (everything before the final
    // terminal), annotating nodes with the discriminators below.
    let mut nodes: Vec<TrieNode> = vec![TrieNode::default()];
    let mut castless = Vec::new();
    let mut cast_examples = Vec::new();
    for e in examples {
        match key_of(e) {
            Some(key) => cast_examples.push((e, key)),
            None => castless.push(e.clone()),
        }
    }
    for (e, target) in &cast_examples {
        let body = &e[..e.len() - 1];
        let mut at = 0usize;
        record_target(&mut nodes[at].targets, *target);
        for step in body.iter().rev() {
            let next = match nodes[at].children.get(step) {
                Some(&n) => n,
                None => {
                    let n = nodes.len();
                    nodes.push(TrieNode::default());
                    nodes[at].children.insert(*step, n);
                    n
                }
            };
            at = next;
            record_target(&mut nodes[at].targets, *target);
        }
    }
    // Cut each example at the first singleton-target depth.
    let mut out: Vec<Vec<ElemJungloid>> = Vec::new();
    let mut trimmed: u64 = 0;
    for (e, target) in &cast_examples {
        let body = &e[..e.len() - 1];
        let mut at = 0usize;
        let mut keep = body.len(); // default: keep everything
        if nodes[at].targets.len() == 1 {
            keep = 0;
        } else {
            for (depth, step) in body.iter().rev().enumerate() {
                at = nodes[at].children[step];
                if nodes[at].targets.len() == 1 {
                    keep = depth + 1;
                    break;
                }
            }
        }
        if matches!(target, Discriminator::Terminal(_)) {
            // Call-terminated examples keep at least one producing step.
            keep = keep.max(1.min(body.len()));
        }
        let suffix: Vec<ElemJungloid> = e[e.len() - 1 - keep..].to_vec();
        if suffix.len() < e.len() {
            trimmed += 1;
        }
        if !out.contains(&suffix) {
            out.push(suffix);
        }
    }
    for e in castless {
        if !out.contains(&e) {
            out.push(e);
        }
    }
    prospector_obs::add(Counter::GeneralizeSuffixesTrimmed, trimmed);
    out
}

fn record_target(targets: &mut Vec<Discriminator>, t: Discriminator) {
    if !targets.contains(&t) {
        targets.push(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jungloid_apidef::elem::elems_of_method;
    use jungloid_apidef::{Api, ApiLoader, InputSlot};

    /// Figure 7's shape: two chains that converge on a shared suffix but
    /// end in different casts, plus assorted prefixes.
    fn api() -> Api {
        let mut loader = ApiLoader::with_prelude();
        loader
            .add_source(
                "ant.api",
                r"
                package ant;
                public class Project {
                    Object getTargets();
                    Object getTasks();
                }
                public class Target {}
                public class Task {}
                public class Locator {
                    static Project find(String name);
                    Project reload();
                }
                ",
            )
            .unwrap();
        loader.finish().unwrap()
    }

    struct Elems {
        get_targets: ElemJungloid,
        get_tasks: ElemJungloid,
        find: ElemJungloid,
        reload: ElemJungloid,
        cast_target: ElemJungloid,
        cast_task: ElemJungloid,
    }

    fn elems(api: &Api) -> Elems {
        let project = api.types().resolve("Project").unwrap();
        let locator = api.types().resolve("Locator").unwrap();
        let obj = api.types().object().unwrap();
        let target = api.types().resolve("Target").unwrap();
        let task = api.types().resolve("Task").unwrap();
        let m = |c, n: &str| {
            let id = api.lookup_instance_method(c, n, 0).first().copied().unwrap_or_else(|| {
                api.lookup_static_method(c, n, 1)[0]
            });
            elems_of_method(api, id)[0]
        };
        Elems {
            get_targets: m(project, "getTargets"),
            get_tasks: m(project, "getTasks"),
            find: m(locator, "find"),
            reload: ElemJungloid::Call {
                method: api.lookup_instance_method(locator, "reload", 0)[0],
                input: Some(InputSlot::Receiver),
            },
            cast_target: ElemJungloid::Downcast { from: obj, to: target },
            cast_task: ElemJungloid::Downcast { from: obj, to: task },
        }
    }

    #[test]
    fn figure7_shared_suffix_distinguished() {
        let api = api();
        let e = elems(&api);
        // (Target) locator.find(n).getTargets()   — area I = find
        // (Task)   locator.reload().getTasks()
        let ex1 = vec![e.find, e.get_targets, e.cast_target];
        let ex2 = vec![e.reload, e.get_tasks, e.cast_task];
        let g = generalize(&[ex1, ex2]);
        // getTargets vs getTasks already distinguish the casts, so the
        // prefixes (find / reload) are dropped.
        assert_eq!(g.len(), 2);
        assert!(g.contains(&vec![e.get_targets, e.cast_target]));
        assert!(g.contains(&vec![e.get_tasks, e.cast_task]));
    }

    #[test]
    fn identical_suffix_different_cast_keeps_divergence_point() {
        let api = api();
        let e = elems(&api);
        // (Target) find(n).getTargets()  vs  (Task) reload().getTargets():
        // getTargets is shared, so the divergent prior step must be kept.
        let ex1 = vec![e.find, e.get_targets, e.cast_target];
        let ex2 = vec![e.reload, e.get_targets, e.cast_task];
        let g = generalize(&[ex1.clone(), ex2.clone()]);
        assert!(g.contains(&ex1));
        assert!(g.contains(&ex2));
    }

    #[test]
    fn no_conflicts_generalizes_to_bare_cast() {
        let api = api();
        let e = elems(&api);
        let ex = vec![e.find, e.get_targets, e.cast_target];
        let g = generalize(&[ex]);
        assert_eq!(g, vec![vec![e.cast_target]]);
    }

    #[test]
    fn same_cast_examples_do_not_constrain_each_other() {
        let api = api();
        let e = elems(&api);
        let ex1 = vec![e.find, e.get_targets, e.cast_target];
        let ex2 = vec![e.reload, e.get_targets, e.cast_target];
        let g = generalize(&[ex1, ex2]);
        // Both end in (Target): no conflict, so both collapse to the cast.
        assert_eq!(g, vec![vec![e.cast_target]]);
    }

    #[test]
    fn example_that_is_suffix_of_conflicting_example_kept_whole() {
        let api = api();
        let e = elems(&api);
        // Shorter example is a full suffix of the longer, differently-cast
        // one: it can never be distinguished, so it is kept whole.
        let long = vec![e.find, e.get_targets, e.cast_target];
        let short = vec![e.get_targets, e.cast_task];
        let g = generalize(&[long.clone(), short.clone()]);
        assert!(g.contains(&short));
        // The long one is distinguished one step earlier.
        assert!(g.contains(&vec![e.find, e.get_targets, e.cast_target]));
    }

    #[test]
    fn castless_examples_pass_through() {
        let api = api();
        let e = elems(&api);
        let plain = vec![e.find, e.get_targets];
        let g = generalize(std::slice::from_ref(&plain));
        assert_eq!(g, vec![plain]);
    }

    #[test]
    fn output_deduplicated() {
        let api = api();
        let e = elems(&api);
        let ex1 = vec![e.find, e.get_targets, e.cast_target];
        let ex2 = vec![e.reload, e.get_targets, e.cast_target];
        let ex3 = vec![e.get_tasks, e.cast_task];
        let g = generalize(&[ex1, ex2, ex3.clone()]);
        // ex1/ex2 share cast & suffix; dedup leaves getTargets+cast once…
        // actually they collapse to [get_targets, cast] because ex3's
        // differently-cast body diverges at depth 1.
        assert_eq!(g.len(), 2);
        assert!(g.contains(&vec![e.get_targets, e.cast_target]));
        assert!(g.contains(&ex3));
    }

    #[test]
    fn empty_input_empty_output() {
        assert!(generalize(&[]).is_empty());
    }
}
