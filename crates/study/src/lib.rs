//! A simulated replication of the paper's user study (§6–§7, Figure 8).
//!
//! The original study put 13 human programmers in front of four
//! programming problems, two solved with PROSPECTOR and two without, and
//! measured completion time and answer quality. We cannot run humans, so
//! this crate substitutes **stochastic programmer models** whose two
//! conditions mirror the two search processes the paper describes:
//!
//! * **Without the tool** ([`simulate`]'s baseline arm): the programmer
//!   browses the *actual jungloid graph* member by member — the paper's
//!   "the IDE can easily show members of IFile" workflow. Starting from
//!   the problem's visible variables, they inspect out-edges in random
//!   order, paying a per-inspection cost; they recognize an edge that
//!   makes progress (distance-to-target decreases) only with some
//!   probability — and recognize *downcast* edges with much lower
//!   probability, modeling §4.1's "ISelection appears to be a dead end".
//!   Static methods of other classes (the paper's `JavaCore` trap) are
//!   also harder to find than members of a type in hand. After a
//!   difficulty-scaled budget they give up and reimplement, which costs
//!   extra time and risks the subtle bugs §7 reports.
//! * **With the tool**: the programmer invokes content assist, reads the
//!   ranked list to the desired solution's rank, verifies, and inserts.
//!
//! Absolute minutes are synthetic; the *shape* is the reproduction
//! target: tool users ≈2× faster on average (paper: 1.9), most users
//! individually faster with the tool (paper: 10 of 13), and tool users
//! reuse where baseline users reimplement (paper's Problem 1: of 8
//! baseline users only 2 found the wrapper; 3 copied elements; 3
//! reimplemented).

use jungloid_typesys::TyId;
use prospector_core::{NodeId, Prospector};
use prospector_corpora::problems::{user_study, StudyProblem};
use prospector_obs::SmallRng;

/// Simulation parameters. Times are minutes.
#[derive(Clone, Copy, Debug)]
pub struct StudyConfig {
    /// RNG seed (a study instance is deterministic in it).
    pub seed: u64,
    /// Number of simulated programmers (paper: 13).
    pub users: usize,
    /// Cost of inspecting one candidate member while browsing.
    pub inspect_minutes: f64,
    /// Probability of recognizing a useful ordinary member when seen.
    pub recognize_member: f64,
    /// Probability of recognizing a useful *static-method-of-another-
    /// class* edge (the `JavaCore` trap).
    pub recognize_static: f64,
    /// Probability of recognizing that a downcast would succeed.
    pub recognize_downcast: f64,
    /// Browsing budget before giving up, scaled by problem difficulty.
    pub browse_budget_minutes: f64,
    /// Wandering multiplier: scanning also visits wrong intermediate
    /// chains before the right member is found.
    pub branch_factor: f64,
    /// Effective extra search space for a static method or constructor of
    /// *some other class* (the programmer does not know where to look).
    pub static_space: f64,
    /// Effective extra search space for guessing a viable downcast.
    pub downcast_space: f64,
    /// Time to reimplement the feature after giving up.
    pub reimplement_minutes: f64,
    /// Probability a reimplementation is subtly wrong (§7's broken
    /// `Iterator.remove`).
    pub reimplement_bug: f64,
    /// Cost of reading one ranked suggestion.
    pub read_minutes: f64,
    /// Fixed cost to invoke the tool, verify the pick, and insert it.
    pub tool_overhead_minutes: f64,
    /// Shared fixed cost per problem (understanding the task, testing).
    pub task_overhead_minutes: f64,
    /// Probability a user "did not really understand how to use it until
    /// after completing the study" (§7 footnote 6): their tool trials run
    /// at a large multiplier.
    pub tool_confusion: f64,
}

impl Default for StudyConfig {
    fn default() -> Self {
        StudyConfig {
            seed: 0x5u64 << 32 | 0x2005,
            users: 13,
            inspect_minutes: 0.08,
            recognize_member: 0.5,
            recognize_static: 0.35,
            recognize_downcast: 0.15,
            browse_budget_minutes: 8.0,
            branch_factor: 2.5,
            static_space: 30.0,
            downcast_space: 25.0,
            reimplement_minutes: 6.0,
            reimplement_bug: 0.33,
            read_minutes: 0.2,
            tool_overhead_minutes: 2.2,
            task_overhead_minutes: 3.0,
            tool_confusion: 0.18,
        }
    }
}

/// How a trial's answer was classified (§7's categories).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Correct, based on reuse of the desired solution.
    CorrectReuse,
    /// Correct reuse, but of a less efficient route (e.g. copying into a
    /// list).
    CorrectInefficient,
    /// Correct behaviour obtained by reimplementation.
    Reimplemented,
    /// Subtly incorrect (usually a buggy reimplementation).
    Incorrect,
}

/// One user × problem measurement.
#[derive(Clone, Copy, Debug)]
pub struct Trial {
    /// User index (0-based).
    pub user: usize,
    /// Problem id (1-based, paper order).
    pub problem: u32,
    /// Condition: with PROSPECTOR?
    pub with_tool: bool,
    /// Completion time in minutes.
    pub minutes: f64,
    /// Answer classification.
    pub outcome: Outcome,
}

/// The full simulated study.
#[derive(Clone, Debug)]
pub struct StudyReport {
    /// All trials (one per user × problem).
    pub trials: Vec<Trial>,
}

impl StudyReport {
    /// Mean completion time for a problem under a condition.
    #[must_use]
    pub fn mean_minutes(&self, problem: u32, with_tool: bool) -> f64 {
        let xs: Vec<f64> = self
            .trials
            .iter()
            .filter(|t| t.problem == problem && t.with_tool == with_tool)
            .map(|t| t.minutes)
            .collect();
        xs.iter().sum::<f64>() / xs.len().max(1) as f64
    }

    /// Standard deviation for a problem under a condition.
    #[must_use]
    pub fn sd_minutes(&self, problem: u32, with_tool: bool) -> f64 {
        let xs: Vec<f64> = self
            .trials
            .iter()
            .filter(|t| t.problem == problem && t.with_tool == with_tool)
            .map(|t| t.minutes)
            .collect();
        if xs.len() < 2 {
            return 0.0;
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        (xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64).sqrt()
    }

    /// Per-user speedup: (total baseline minutes) / (total tool minutes).
    #[must_use]
    pub fn user_speedups(&self) -> Vec<f64> {
        let users = self.trials.iter().map(|t| t.user).max().map_or(0, |u| u + 1);
        (0..users)
            .map(|u| {
                let total = |with_tool: bool| -> f64 {
                    self.trials
                        .iter()
                        .filter(|t| t.user == u && t.with_tool == with_tool)
                        .map(|t| t.minutes)
                        .sum()
                };
                total(false) / total(true)
            })
            .collect()
    }

    /// Average of the per-user speedups (paper: 1.9).
    #[must_use]
    pub fn average_speedup(&self) -> f64 {
        let speedups = self.user_speedups();
        speedups.iter().sum::<f64>() / speedups.len().max(1) as f64
    }

    /// Outcome counts for one problem/condition.
    #[must_use]
    pub fn outcome_counts(&self, problem: u32, with_tool: bool) -> [usize; 4] {
        let mut counts = [0usize; 4];
        for t in self.trials.iter().filter(|t| t.problem == problem && t.with_tool == with_tool) {
            let idx = match t.outcome {
                Outcome::CorrectReuse => 0,
                Outcome::CorrectInefficient => 1,
                Outcome::Reimplemented => 2,
                Outcome::Incorrect => 3,
            };
            counts[idx] += 1;
        }
        counts
    }

    /// Renders the Figure 8 analog: per-problem time summaries for both
    /// conditions plus the headline aggregates.
    #[must_use]
    pub fn format_figure8(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<10} {:>22} {:>22}   outcomes with tool [reuse/ineff/reimpl/bug] vs without",
            "Problem", "with tool (min)", "without (min)"
        );
        let _ = writeln!(out, "{}", "-".repeat(110));
        for p in 1..=4u32 {
            let with = (self.mean_minutes(p, true), self.sd_minutes(p, true));
            let without = (self.mean_minutes(p, false), self.sd_minutes(p, false));
            let co_t = self.outcome_counts(p, true);
            let co_b = self.outcome_counts(p, false);
            let _ = writeln!(
                out,
                "Problem {p}  {:>12.1} ± {:<5.1} {:>13.1} ± {:<5.1}   {:?} vs {:?}",
                with.0, with.1, without.0, without.1, co_t, co_b
            );
        }
        let _ = writeln!(out, "{}", "-".repeat(110));
        let faster = self.user_speedups().iter().filter(|&&s| s > 1.05).count();
        let _ = writeln!(
            out,
            "average per-user speedup {:.2} (paper: 1.9); {}/{} users faster with the tool (paper: 10/13)",
            self.average_speedup(),
            faster,
            self.user_speedups().len()
        );
        out
    }
}

impl StudyReport {
    /// Renders a text scatter in the spirit of the actual Figure 8: one
    /// row per problem and condition, each user's completion time plotted
    /// as a dot on a shared minutes axis, with the mean marked `|`.
    #[must_use]
    pub fn format_scatter(&self) -> String {
        use std::fmt::Write as _;
        let max = self
            .trials
            .iter()
            .map(|t| t.minutes)
            .fold(1.0_f64, f64::max)
            .ceil();
        let width = 60usize;
        let col = |minutes: f64| -> usize {
            (((minutes / max) * (width as f64 - 1.0)).round() as usize).min(width - 1)
        };
        let mut out = String::new();
        let _ = writeln!(out, "time scatter (each `o` is one user; `|` is the mean; axis 0..{max:.0} min)");
        for p in 1..=4u32 {
            for with_tool in [true, false] {
                let mut row = vec![b' '; width];
                for t in self.trials.iter().filter(|t| t.problem == p && t.with_tool == with_tool)
                {
                    let c = col(t.minutes);
                    row[c] = if row[c] == b'o' { b'O' } else { b'o' };
                }
                let mean = self.mean_minutes(p, with_tool);
                let mc = col(mean);
                if row[mc] == b' ' {
                    row[mc] = b'|';
                }
                let _ = writeln!(
                    out,
                    "P{p} {:<8} [{}]",
                    if with_tool { "tool" } else { "no-tool" },
                    String::from_utf8_lossy(&row)
                );
            }
        }
        out
    }
}

/// Runs the simulated study over a built engine.
///
/// # Panics
///
/// Panics if a study problem references types missing from the engine's
/// API (a corpus bug).
#[must_use]
pub fn simulate(prospector: &Prospector, config: &StudyConfig) -> StudyReport {
    let problems = user_study();
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let mut trials = Vec::new();
    for user in 0..config.users {
        // Skill multiplier ~ [0.6, 1.6): scales every time the user takes.
        let skill = 0.6 + rng.gen_f64();
        let confused = rng.gen_f64() < config.tool_confusion;
        // Random 2-of-4 assignment to the tool condition (paper §6).
        let mut with_tool = [false; 4];
        let first = rng.gen_range(0..4);
        let mut second = rng.gen_range(0..3);
        if second >= first {
            second += 1;
        }
        with_tool[first] = true;
        with_tool[second] = true;

        for (pi, problem) in problems.iter().enumerate() {
            let trial = if with_tool[pi] {
                let mut t = run_with_tool(prospector, problem, skill, config, &mut rng, user);
                if confused {
                    t.minutes *= 1.8 + rng.gen_f64();
                }
                t
            } else {
                run_baseline(prospector, problem, skill, config, &mut rng, user)
            };
            trials.push(trial);
        }
    }
    StudyReport { trials }
}

fn assist_rank(prospector: &Prospector, problem: &StudyProblem, needles: &[&str]) -> Option<usize> {
    let api = prospector.api();
    let visible: Vec<(&str, TyId)> = problem
        .visible
        .iter()
        .map(|(name, ty)| (*name, api.types().resolve(ty).expect("study type resolves")))
        .collect();
    let tout = api.types().resolve(problem.tout).expect("study tout resolves");
    let result = prospector.assist(&visible, tout).expect("study query valid");
    result.rank_where(|s| needles.iter().all(|n| s.code.contains(n)))
}

fn run_with_tool(
    prospector: &Prospector,
    problem: &StudyProblem,
    skill: f64,
    config: &StudyConfig,
    rng: &mut SmallRng,
    user: usize,
) -> Trial {
    let rank = assist_rank(prospector, problem, problem.desired);
    let (minutes, outcome) = match rank {
        Some(r) => {
            let read = config.read_minutes * r as f64;
            let jitter = 0.8 + 0.4 * rng.gen_f64();
            (
                (config.task_overhead_minutes + config.tool_overhead_minutes + read)
                    * problem.difficulty.sqrt()
                    * skill
                    * jitter,
                Outcome::CorrectReuse,
            )
        }
        None => {
            // The tool has no answer: fall back to browsing.
            let t = run_baseline(prospector, problem, skill, config, rng, user);
            (t.minutes + config.tool_overhead_minutes, t.outcome)
        }
    };
    Trial { user, problem: problem.id, with_tool: true, minutes, outcome }
}

/// Simulates manually *discovering* one concrete solution jungloid: for
/// each of its steps, the programmer must find the right member among the
/// out-edges of the type in hand (scan cost proportional to the node's
/// real out-degree) and recognize it as useful (kind-dependent
/// probability — instance members are browsable, static methods of other
/// classes are the `JavaCore` trap, downcasts look like dead ends).
///
/// Returns `(minutes_spent, success)`; failure happens when the budget
/// runs out or the programmer never recognizes a step.
fn discovery_minutes(
    prospector: &Prospector,
    jungloid: &prospector_core::Jungloid,
    skill: f64,
    difficulty: f64,
    budget: f64,
    config: &StudyConfig,
    rng: &mut SmallRng,
) -> (f64, bool) {
    let api = prospector.api();
    let graph = prospector.graph();
    let mut minutes = 0.0;
    for elem in jungloid.elems.iter().filter(|e| !e.is_widen()) {
        let node = NodeId::Ty(elem.input_ty(api));
        let mut space = graph.out_edges(node).len().max(4) as f64;
        // Harder problems mean less familiar APIs: recognition odds
        // shrink with difficulty.
        let recognize = match elem {
            e if e.is_downcast() => {
                space += config.downcast_space;
                config.recognize_downcast
            }
            jungloid_apidef::ElemJungloid::Call { method, .. } => {
                let def = api.method(*method);
                if def.is_static() || def.is_constructor() || elem.input_ty(api) == api.types().void()
                {
                    space += config.static_space;
                    config.recognize_static
                } else {
                    config.recognize_member
                }
            }
            _ => config.recognize_member,
        };
        // Repeated passes over the candidate space until the right entry
        // is both seen and recognized; wandering inflates each pass.
        let recognize = recognize / difficulty;
        let mut recognized = false;
        for _pass in 0..8 {
            let scanned = (1.0 + rng.gen_f64() * space) * config.branch_factor;
            minutes += scanned * config.inspect_minutes * skill;
            if minutes > budget {
                return (budget, false);
            }
            if rng.gen_f64() < recognize {
                recognized = true;
                break;
            }
        }
        if !recognized {
            return (minutes, false);
        }
    }
    (minutes, true)
}

/// The no-tool arm: browse for the desired solution; failing that, maybe
/// find the inefficient alternative; failing that, reimplement.
fn run_baseline(
    prospector: &Prospector,
    problem: &StudyProblem,
    skill: f64,
    config: &StudyConfig,
    rng: &mut SmallRng,
    user: usize,
) -> Trial {
    let budget = config.browse_budget_minutes * problem.difficulty.sqrt();
    let mut minutes = config.task_overhead_minutes * skill;

    let jungloid_for =
        |needles: &[&str], tout_name: &str| -> Option<prospector_core::Jungloid> {
            if needles.is_empty() {
                return None;
            }
            let api = prospector.api();
            let visible: Vec<(&str, TyId)> = problem
                .visible
                .iter()
                .map(|(name, ty)| (*name, api.types().resolve(ty).expect("study type resolves")))
                .collect();
            let tout = api.types().resolve(tout_name).expect("study tout resolves");
            let result = prospector.assist(&visible, tout).expect("study query valid");
            result
                .suggestions
                .iter()
                .find(|s| needles.iter().all(|n| s.code.contains(n)))
                .map(|s| s.jungloid.clone())
        };

    // Programmers try the *obvious* route first (the inefficient
    // alternative, when one exists), then hunt for the best one, then
    // give up and reimplement.
    let mut found = None;
    let mut remaining = budget;
    if let Some(j) =
        jungloid_for(problem.inefficient, problem.inefficient_tout.unwrap_or(problem.tout))
    {
        let (t, ok) =
            discovery_minutes(prospector, &j, skill, problem.difficulty, remaining * 0.35, config, rng);
        minutes += t;
        remaining -= t;
        if ok {
            found = Some(Outcome::CorrectInefficient);
        }
    }
    if found.is_none() {
        if let Some(j) = jungloid_for(problem.desired, problem.tout) {
            let (t, ok) =
                discovery_minutes(prospector, &j, skill, problem.difficulty, remaining, config, rng);
            minutes += t;
            if ok {
                found = Some(Outcome::CorrectReuse);
            }
        }
    }
    let outcome = match found {
        Some(Outcome::CorrectReuse) if rng.gen_f64() < problem.subtle_bug => {
            Outcome::Incorrect
        }
        Some(o) => o,
        None => {
            minutes += config.reimplement_minutes * skill * problem.difficulty.sqrt();
            if rng.gen_f64() < config.reimplement_bug {
                Outcome::Incorrect
            } else {
                Outcome::Reimplemented
            }
        }
    };
    Trial { user, problem: problem.id, with_tool: false, minutes, outcome }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prospector_corpora::build_default;

    fn report() -> StudyReport {
        let p = build_default();
        simulate(&p, &StudyConfig::default())
    }

    #[test]
    fn every_user_solves_two_and_two() {
        let r = report();
        assert_eq!(r.trials.len(), 13 * 4);
        for u in 0..13 {
            let with: Vec<_> =
                r.trials.iter().filter(|t| t.user == u && t.with_tool).collect();
            assert_eq!(with.len(), 2, "user {u} tool assignment");
        }
    }

    #[test]
    fn speedup_matches_paper_shape() {
        let r = report();
        let avg = r.average_speedup();
        assert!((1.4..=2.8).contains(&avg), "avg speedup {avg} outside the paper's ballpark");
        let faster = r.user_speedups().iter().filter(|&&s| s > 1.05).count();
        assert!(faster >= 9, "only {faster}/13 users faster with the tool");
    }

    #[test]
    fn tool_condition_reuses() {
        let r = report();
        for p in 1..=4 {
            let [reuse, _, reimpl, bug] = r.outcome_counts(p, true);
            assert!(reuse >= 1);
            assert_eq!(reimpl + bug, 0, "tool users should not reimplement problem {p}");
        }
    }

    #[test]
    fn baseline_sometimes_reimplements_problem1() {
        // §7: of 8 non-tool users on problem 1, 3 reimplemented and only
        // 2 found the wrapper. Assert the qualitative split: baseline
        // shows a mix of reuse and non-reuse across the study.
        let r = report();
        let mut non_reuse = 0;
        let mut total = 0;
        for p in 1..=4 {
            let [_, ineff, reimpl, bug] = r.outcome_counts(p, false);
            non_reuse += ineff + reimpl + bug;
            total += r.outcome_counts(p, false).iter().sum::<usize>();
        }
        assert!(total > 0);
        assert!(non_reuse >= total / 4, "baseline should frequently fail to reuse");
    }

    #[test]
    fn deterministic_in_seed() {
        let p = build_default();
        let a = simulate(&p, &StudyConfig::default());
        let b = simulate(&p, &StudyConfig::default());
        assert_eq!(a.trials.len(), b.trials.len());
        for (x, y) in a.trials.iter().zip(&b.trials) {
            assert!((x.minutes - y.minutes).abs() < 1e-12);
            assert_eq!(x.outcome, y.outcome);
        }
        let c = simulate(&p, &StudyConfig { seed: 7, ..StudyConfig::default() });
        assert!(a.trials.iter().zip(&c.trials).any(|(x, y)| (x.minutes - y.minutes).abs() > 1e-9));
    }

    #[test]
    fn figure8_renders() {
        let r = report();
        let s = r.format_figure8();
        assert!(s.contains("Problem 1"));
        assert!(s.contains("average per-user speedup"));
    }

    #[test]
    fn scatter_renders_all_rows() {
        let r = report();
        let s = r.format_scatter();
        // 4 problems x 2 conditions.
        assert_eq!(s.lines().filter(|l| l.starts_with('P')).count(), 8);
        assert!(s.contains("P1 tool"));
        assert!(s.contains("P4 no-tool"));
        // Every row has at least one user dot.
        for line in s.lines().filter(|l| l.starts_with('P')) {
            assert!(line.contains('o') || line.contains('O'), "{line}");
        }
    }
}
