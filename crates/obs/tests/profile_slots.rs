//! The profiler samples live threads only: a thread that opened a stage
//! span and then exited must stop being sampled (and counted as `idle`).
//!
//! One test in its own binary, because the registry of thread slots and
//! the sample counter are process-global.

use prospector_obs::{profile, Stage};

#[test]
fn exited_threads_are_not_sampled() {
    profile::set_enabled(true);
    // This thread and one parked helper stay alive with a slot each.
    profile::push(Stage::ServeRequest);
    profile::pop();
    let (park, parked) = std::sync::mpsc::channel::<()>();
    let (ready, registered) = std::sync::mpsc::channel::<()>();
    let helper = std::thread::spawn(move || {
        profile::push(Stage::Search);
        profile::pop();
        ready.send(()).unwrap();
        parked.recv().unwrap();
    });
    registered.recv().unwrap();

    for _ in 0..64 {
        std::thread::spawn(|| {
            profile::push(Stage::Rank);
            profile::pop();
        })
        .join()
        .unwrap();
    }
    let before = profile::samples();
    profile::sample_all();
    assert_eq!(profile::samples() - before, 2, "one sample per live thread");

    park.send(()).unwrap();
    helper.join().unwrap();
    let before = profile::samples();
    profile::sample_all();
    assert_eq!(profile::samples() - before, 1, "the helper's slot left with it");
    profile::set_enabled(false);
}
