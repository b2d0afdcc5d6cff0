//! The hierarchy walks behind `is_subtype` and `depth`: their cost and
//! their answers.
//!
//! * **Cost.** A counting global allocator (per thread, so parallel tests
//!   do not pollute each other) pins that both walks allocate a bounded
//!   number of bytes per call, set by the supertypes they visit and not
//!   by the table's size; that `depth` up a single-inheritance chain
//!   allocates nothing; that a lattice of interface diamonds costs
//!   linear, not exponential, time; and that a long superclass chain
//!   needs no call stack.
//! * **Answers.** On seeded random hierarchies with several interfaces
//!   per type and diamonds, every pair's `is_subtype` equals a naive
//!   transitive closure and every `depth` equals an exhaustive
//!   longest-path enumeration, both computed from the links as the test
//!   declared them, not from the table.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::{Duration, Instant};

use jungloid_typesys::{TyId, TypeKind, TypeTable};
use prospector_obs::SmallRng;

/// Counts the bytes each thread asks the heap for. Deallocation is
/// uncounted: the pin is "bytes allocated per call".
struct CountingAlloc;

thread_local! {
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with`: the allocator can run while this thread's locals are
    // being torn down.
    let _ = BYTES.try_with(|b| b.set(b.get() + bytes as u64));
}

// SAFETY: defers to `System` for every operation; only adds a
// thread-local counter bump on the allocation paths.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Bytes this thread allocated while running `f`, and its result.
fn bytes_during<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = BYTES.with(Cell::get);
    let out = f();
    (BYTES.with(Cell::get) - before, out)
}

fn with_object() -> TypeTable {
    let mut t = TypeTable::new();
    t.declare("java.lang", "Object", TypeKind::Class).unwrap();
    t
}

/// `levels` stacked interface diamonds: `J(k)` extends `A(k)` and
/// `B(k)`, which both extend `J(k-1)`. Returns the bottom join.
fn diamond_lattice(t: &mut TypeTable, levels: usize) -> TyId {
    let mut join = t.declare("p", "J0", TypeKind::Interface).unwrap();
    for k in 1..=levels {
        let a = t.declare("p", &format!("A{k}"), TypeKind::Interface).unwrap();
        let b = t.declare("p", &format!("B{k}"), TypeKind::Interface).unwrap();
        let next = t.declare("p", &format!("J{k}"), TypeKind::Interface).unwrap();
        t.add_interface(a, join).unwrap();
        t.add_interface(b, join).unwrap();
        t.add_interface(next, a).unwrap();
        t.add_interface(next, b).unwrap();
        join = next;
    }
    join
}

#[test]
fn depth_settles_each_diamond_once() {
    let mut t = with_object();
    let bottom = diamond_lattice(&mut t, 24);
    assert_eq!(t.decls().count(), 1 + 73, "Object plus 73 interfaces");
    let started = Instant::now();
    // J0 widens to Object (1), and each level adds two links.
    assert_eq!(t.depth(bottom), 49);
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "depth over 24 diamonds took {:?}",
        started.elapsed()
    );
}

#[test]
fn depth_and_subtyping_walk_a_long_chain_without_a_call_stack() {
    const CLASSES: usize = 50_000;
    let mut t = with_object();
    let chain: Vec<TyId> = (0..CLASSES)
        .map(|i| t.declare("p", &format!("C{i}"), TypeKind::Class).unwrap())
        .collect();
    // Bottom-up: each link's superclass has no superclass yet, so the
    // cycle check walks one implicit `Object` link and construction
    // stays linear.
    for pair in chain.windows(2) {
        t.set_superclass(pair[0], pair[1]).unwrap();
    }
    // An interface on the bottom class sends its `depth` through the memo
    // walk; from the next class up the chain has one supertype a link, so
    // there `depth` is a count.
    let side = t.declare("p", "Side", TypeKind::Interface).unwrap();
    t.add_interface(chain[0], side).unwrap();
    let (bottom, next, top) = (chain[0], chain[1], chain[CLASSES - 1]);
    let walked = std::thread::Builder::new()
        .stack_size(256 * 1024)
        .spawn(move || {
            let (count_bytes, next_depth) = bytes_during(|| t.depth(next));
            (
                [t.depth(bottom), next_depth],
                [t.is_subtype(bottom, top), t.is_subtype(next, top), t.is_subtype(top, bottom)],
                count_bytes,
            )
        })
        .unwrap()
        .join()
        .expect("the walks fit a 256 KiB stack");
    let n = CLASSES as u32;
    assert_eq!(walked, ([n, n - 1], [true, true, false], 0), "the count allocates nothing");
}

/// One family of 20 types whose walks stay inside it: an interface
/// diamond with a tail (`I3` extends `I1` and `I2`, both extending `I0`;
/// `I4` extends `I3`) and a binary tree of 15 classes, each implementing
/// one of the family's interfaces.
fn add_family(t: &mut TypeTable, f: usize) -> Vec<TyId> {
    let i: Vec<TyId> = (0..5)
        .map(|k| t.declare("p", &format!("F{f}I{k}"), TypeKind::Interface).unwrap())
        .collect();
    for (sub, sup) in [(1, 0), (2, 0), (3, 1), (3, 2), (4, 3)] {
        t.add_interface(i[sub], i[sup]).unwrap();
    }
    let c: Vec<TyId> = (0..15)
        .map(|k| t.declare("p", &format!("F{f}C{k}"), TypeKind::Class).unwrap())
        .collect();
    for k in 0..15 {
        if k > 0 {
            t.set_superclass(c[k], c[(k - 1) / 2]).unwrap();
        }
        t.add_interface(c[k], i[k % 5]).unwrap();
    }
    c
}

/// Bytes one `is_subtype` between two unrelated families' deepest
/// classes, and one `depth` of the deepest class, allocate on a table
/// of `families` × 20 types.
fn walk_bytes(families: usize) -> (u64, u64) {
    let mut t = with_object();
    let classes: Vec<Vec<TyId>> = (0..families).map(|f| add_family(&mut t, f)).collect();
    let (sub, sup) = (classes[families - 1][14], classes[0][14]);
    // Warm-up: lazily initialized thread state is not the walk's cost.
    assert!(!t.is_subtype(sub, sup));
    let (subtype_bytes, related) = bytes_during(|| t.is_subtype(sub, sup));
    assert!(!related, "the families are unrelated");
    let (depth_bytes, depth) = bytes_during(|| t.depth(sub));
    // C14 → C6 → C2 → C0 → Object, or C14 → I4 → I3 → I1 → I0 → Object.
    assert_eq!(depth, 5);
    (subtype_bytes, depth_bytes)
}

#[test]
fn walks_allocate_by_supertypes_walked_not_by_table_size() {
    let (small_subtype, small_depth) = walk_bytes(10);
    let (subtype, depth) = walk_bytes(1_000);
    assert!(subtype < 1024, "is_subtype allocated {subtype} bytes on 20,000 types");
    assert!(depth < 1024, "depth allocated {depth} bytes on 20,000 types");
    assert_eq!(
        (subtype, depth),
        (small_subtype, small_depth),
        "20,000 types cost what 200 do"
    );
}

/// A seeded random hierarchy over `Object` plus `n` declared types:
/// `parents[i]` are type `i`'s direct supertypes exactly as the table
/// models them (the superclass, or `Object` when there is none, then the
/// interfaces), with `Object` as type 0.
struct Spec {
    ids: Vec<TyId>,
    parents: Vec<Vec<usize>>,
}

fn random_hierarchy(seed: u64) -> (TypeTable, Spec) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = rng.gen_range(8..=24);
    let mut t = TypeTable::new();
    let mut ids = vec![t.declare("java.lang", "Object", TypeKind::Class).unwrap()];
    let mut parents = vec![Vec::new()];
    let mut interface = vec![false];
    for i in 1..=n {
        let is_iface = rng.gen_bool(0.5);
        let kind = if is_iface { TypeKind::Interface } else { TypeKind::Class };
        let id = t.declare("p", &format!("T{i}"), kind).unwrap();
        let mut ps = Vec::new();
        let classes: Vec<usize> = (1..i).filter(|&j| !interface[j]).collect();
        if !is_iface && !classes.is_empty() && rng.gen_bool(0.6) {
            let sup = classes[rng.gen_range(0..classes.len())];
            t.set_superclass(id, ids[sup]).unwrap();
            ps.push(sup);
        } else {
            ps.push(0);
        }
        let ifaces: Vec<usize> = (1..i).filter(|&j| interface[j]).collect();
        if !ifaces.is_empty() {
            for _ in 0..rng.gen_range(0..=4) {
                let sup = ifaces[rng.gen_range(0..ifaces.len())];
                if !ps[1..].contains(&sup) {
                    t.add_interface(id, ids[sup]).unwrap();
                    ps.push(sup);
                }
            }
        }
        ids.push(id);
        parents.push(ps);
        interface.push(is_iface);
    }
    (t, Spec { ids, parents })
}

/// Naive transitive closure: `reach[a][b]` iff `b` is `a` or one of its
/// supertypes, grown to a fixpoint one direct link at a time.
fn closure(spec: &Spec) -> Vec<Vec<bool>> {
    let n = spec.ids.len();
    let mut reach: Vec<Vec<bool>> = (0..n).map(|a| (0..n).map(|b| a == b).collect()).collect();
    let mut changed = true;
    while changed {
        changed = false;
        for a in 0..n {
            for &p in &spec.parents[a] {
                let up = reach[p].clone();
                for (have, via) in reach[a].iter_mut().zip(up) {
                    if via && !*have {
                        *have = true;
                        changed = true;
                    }
                }
            }
        }
    }
    reach
}

/// Exhaustive longest path: every path from `a` up to a root, walked one
/// by one, without memoizing shared supertypes.
fn longest_path(spec: &Spec, a: usize) -> u32 {
    spec.parents[a].iter().map(|&p| 1 + longest_path(spec, p)).max().unwrap_or(0)
}

#[test]
fn walks_agree_with_naive_references_on_random_hierarchies() {
    let mut shared_ancestors = 0;
    for seed in 0..64u64 {
        let (mut t, spec) = random_hierarchy(seed);
        let reach = closure(&spec);
        // Arrays of every declared type, so array covariance is complete:
        // `A[] <: B[]` iff `A <: B`, and every array widens to `Object`.
        let arrays: Vec<TyId> = spec.ids.iter().map(|&id| t.array_of(id)).collect();
        let n = spec.ids.len();
        for a in 0..n {
            let depth = longest_path(&spec, a);
            assert_eq!(t.depth(spec.ids[a]), depth, "seed {seed}: depth of T{a}");
            assert_eq!(t.depth(arrays[a]), depth + 1, "seed {seed}: depth of T{a}[]");
            for b in 0..n {
                let (ta, tb) = (spec.ids[a], spec.ids[b]);
                assert_eq!(t.is_subtype(ta, tb), reach[a][b], "seed {seed}: T{a} <: T{b}");
                assert_eq!(
                    t.is_subtype(arrays[a], arrays[b]),
                    reach[a][b],
                    "seed {seed}: T{a}[] <: T{b}[]"
                );
                assert_eq!(t.is_subtype(arrays[a], tb), b == 0, "seed {seed}: T{a}[] <: T{b}");
                assert!(!t.is_subtype(ta, arrays[b]), "seed {seed}: T{a} <: T{b}[]");
            }
            // A diamond below `Object`: two direct supertypes sharing a
            // declared ancestor.
            let ps = &spec.parents[a];
            if ps.iter().enumerate().any(|(k, &p)| {
                ps[k + 1..].iter().any(|&q| (1..n).any(|c| reach[p][c] && reach[q][c]))
            }) {
                shared_ancestors += 1;
            }
        }
    }
    assert!(shared_ancestors >= 20, "the sweep exercises diamonds: {shared_ancestors}");
}
