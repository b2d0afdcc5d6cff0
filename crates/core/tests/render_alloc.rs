//! What one rendering costs the heap.
//!
//! The engine renders every candidate of every query with
//! `render_code`. A candidate with a named input and no free variables
//! must cost exactly one allocation, the `String` returned: no syntax
//! tree, no name pool, no growth of the renderer's reused buffers. A
//! counting global allocator (per thread, so parallel tests do not
//! pollute each other) pins it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use jungloid_apidef::{Api, ApiLoader, ElemJungloid};
use prospector_core::synth::{render_code, synthesize};
use prospector_core::Jungloid;

/// Counts the allocations (and reallocations) each thread makes.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator can run while this thread's locals are
    // being torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: defers to `System` for every operation; only adds a
// thread-local counter bump on the allocation paths.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations this thread made while running `f`, and its result.
fn allocs_during<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

fn io_api() -> Api {
    let mut loader = ApiLoader::with_prelude();
    loader
        .add_source(
            "io.api",
            r"
            package java.io;
            public class InputStream {}
            public class Reader {}
            public class InputStreamReader extends Reader {
                InputStreamReader(InputStream in);
            }
            public class BufferedReader extends Reader {
                BufferedReader(Reader in);
                String readLine();
            }
            ",
        )
        .unwrap();
    loader.finish().unwrap()
}

/// The ctor taking `input`, as its one-input elementary jungloid.
fn ctor(api: &Api, class: &str, input: &str) -> ElemJungloid {
    let c = api.types().resolve(class).unwrap();
    let input = api.types().resolve(input).unwrap();
    api.methods_of(c)
        .iter()
        .flat_map(|&m| jungloid_apidef::elem::elems_of_method(api, m))
        .find(|e| e.input_ty(api) == input)
        .unwrap()
}

#[test]
fn rendering_a_candidate_without_free_variables_allocates_only_its_string() {
    let api = io_api();
    let stream = api.types().resolve("InputStream").unwrap();
    let isr = api.types().resolve("InputStreamReader").unwrap();
    let reader = api.types().resolve("Reader").unwrap();
    let j = Jungloid::new(
        &api,
        stream,
        vec![
            ctor(&api, "InputStreamReader", "InputStream"),
            ElemJungloid::Widen { from: isr, to: reader },
            ctor(&api, "BufferedReader", "Reader"),
        ],
    )
    .unwrap();
    let expected = "new BufferedReader(new InputStreamReader(in))";
    assert_eq!(synthesize(&api, &j, Some("in")).code(), expected);
    // The first rendering on a thread sizes its reused buffers.
    assert_eq!(render_code(&api, &j, Some("in")), expected);
    let (allocs, code) = allocs_during(|| render_code(&api, &j, Some("in")));
    assert_eq!(code, expected);
    assert_eq!(allocs, 1, "one allocation: the returned String");

    // The tree costs many more: the pin measures something.
    let (tree_allocs, _) = allocs_during(|| synthesize(&api, &j, Some("in")).code());
    assert!(tree_allocs > 5, "synthesize allocated only {tree_allocs} times");
}
