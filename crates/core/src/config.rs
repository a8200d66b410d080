//! Configuration of the table-generation algorithm.

use std::num::NonZeroUsize;
use std::sync::{Mutex, OnceLock};

use cpg_arch::Time;

/// Parses a thread-count environment variable, warning **once** per variable
/// on garbage instead of silently falling back.
///
/// The merge is single-threaded and reads no environment variable. The only
/// caller is the end-to-end benchmark (`perfbench`), which refuses to run
/// while a retired thread-count variable is still set:
///
/// * unset or empty/whitespace-only value → `None` (automatic choice);
/// * `"0"` → `None` (explicit "automatic");
/// * a positive integer (surrounding whitespace tolerated) → that count;
/// * anything else → `None` **plus** one `warning:` line on stderr per
///   variable per process, so a typo like `CPG_MERGE_THREADS=fourteen` can
///   no longer masquerade as unset.
#[must_use]
pub fn threads_from_env(var: &str) -> Option<NonZeroUsize> {
    parse_thread_count(var, std::env::var(var).ok()?.as_str())
}

/// The testable core of [`threads_from_env`]: parses an observed value.
fn parse_thread_count(var: &str, value: &str) -> Option<NonZeroUsize> {
    let trimmed = value.trim();
    if trimmed.is_empty() {
        return None;
    }
    match trimmed.parse::<usize>() {
        Ok(count) => NonZeroUsize::new(count),
        Err(_) => {
            warn_once(var, trimmed);
            None
        }
    }
}

/// Emits one stderr warning per variable name per process.
fn warn_once(var: &str, value: &str) {
    static WARNED: OnceLock<Mutex<Vec<String>>> = OnceLock::new();
    let mut warned = WARNED
        .get_or_init(|| Mutex::new(Vec::new()))
        .lock()
        .expect("thread-count warning registry poisoned");
    if warned.iter().any(|seen| seen == var) {
        return;
    }
    warned.push(var.to_owned());
    eprintln!(
        "warning: ignoring {var}={value:?}: expected a non-negative thread count \
         (0 = automatic), falling back to the automatic choice"
    );
}

/// Runs `body` with the environment variable `name` set to `value` (or
/// removed, for `None`), restoring the previous state afterwards — even when
/// `body` panics.
///
/// The process environment is global and the test harness is parallel, so
/// **every** test that mutates an environment variable must go through this
/// helper: all mutations serialize behind one shared lock, and the
/// save/restore keeps one test's variables from leaking into another's
/// `threads_from_env` probes. Only compiled for tests (and the `test-util`
/// feature, so integration suites in other crates can share the same lock).
///
/// The lock is held for the whole `body` and is not reentrant: do not nest
/// `with_env_var` calls (set both variables from one body instead).
#[cfg(any(test, feature = "test-util"))]
pub fn with_env_var<R>(name: &str, value: Option<&str>, body: impl FnOnce() -> R) -> R {
    static ENV_LOCK: Mutex<()> = Mutex::new(());
    // A panicking body poisons nothing worth keeping: the guard below
    // restores the variable either way.
    let _serialized = ENV_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    struct Restore<'n> {
        name: &'n str,
        previous: Option<String>,
    }
    impl Drop for Restore<'_> {
        fn drop(&mut self) {
            match &self.previous {
                Some(previous) => std::env::set_var(self.name, previous),
                None => std::env::remove_var(self.name),
            }
        }
    }
    let _restore = Restore {
        name,
        previous: std::env::var(name).ok(),
    };
    match value {
        Some(value) => std::env::set_var(name, value),
        None => std::env::remove_var(name),
    }
    body()
}

/// Rule used to pick the next current schedule after a back-step in the
/// decision tree.
///
/// The paper always selects the reachable path with the largest delay
/// ([`SelectionPolicy::LongestDelayFirst`]), so that perturbations are pushed
/// into the short paths and the long paths keep their (near-)optimal
/// schedules. The other policies exist for the ablation study of the benchmark
/// harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum SelectionPolicy {
    /// Give priority to the reachable alternative path whose individual
    /// (optimal) schedule has the largest delay — the policy of the paper.
    #[default]
    LongestDelayFirst,
    /// Give priority to the reachable path with the *smallest* delay
    /// (ablation: shows why the paper's choice matters).
    ShortestDelayFirst,
    /// Take the first reachable path in enumeration order (ablation:
    /// delay-oblivious merging).
    EnumerationOrder,
}

/// Configuration of [`generate_schedule_table`](crate::generate_schedule_table).
///
/// # Example
///
/// ```
/// use cpg_arch::Time;
/// use cpg_merge::{MergeConfig, SelectionPolicy};
///
/// let config = MergeConfig::new(Time::new(1));
/// assert_eq!(config.broadcast_time(), Time::new(1));
/// assert_eq!(config.selection(), SelectionPolicy::LongestDelayFirst);
///
/// let ablation = MergeConfig::new(Time::new(2)).with_selection(SelectionPolicy::ShortestDelayFirst);
/// assert_eq!(ablation.selection(), SelectionPolicy::ShortestDelayFirst);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MergeConfig {
    broadcast_time: Time,
    selection: SelectionPolicy,
}

impl MergeConfig {
    /// Creates a configuration with the paper's default policy and the given
    /// condition-broadcast time `τ0`.
    #[must_use]
    pub fn new(broadcast_time: Time) -> Self {
        MergeConfig {
            broadcast_time,
            selection: SelectionPolicy::default(),
        }
    }

    /// The condition-broadcast time `τ0`.
    #[must_use]
    pub fn broadcast_time(&self) -> Time {
        self.broadcast_time
    }

    /// The path-selection policy used after back-steps.
    #[must_use]
    pub fn selection(&self) -> SelectionPolicy {
        self.selection
    }

    /// Returns the configuration with a different path-selection policy.
    #[must_use]
    pub fn with_selection(mut self, selection: SelectionPolicy) -> Self {
        self.selection = selection;
        self
    }

    /// Returns the configuration with a different broadcast time.
    #[must_use]
    pub fn with_broadcast_time(mut self, broadcast_time: Time) -> Self {
        self.broadcast_time = broadcast_time;
        self
    }

    /// Former worker-thread knob; the argument is ignored because the merge
    /// always runs on the calling thread. Kept so the end-to-end benchmark,
    /// which still pins one thread, keeps compiling.
    #[doc(hidden)]
    #[must_use]
    pub fn with_threads(self, _threads: usize) -> Self {
        self
    }

    /// Always 1: the merge always runs on the calling thread. Kept so the
    /// end-to-end benchmark, which reports the count, keeps compiling.
    #[doc(hidden)]
    #[must_use]
    pub fn effective_threads(&self) -> usize {
        1
    }
}

impl Default for MergeConfig {
    /// The paper's example configuration: `τ0 = 1`, longest-delay-first
    /// selection.
    fn default() -> Self {
        MergeConfig::new(Time::new(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_the_paper() {
        let config = MergeConfig::default();
        assert_eq!(config.broadcast_time(), Time::new(1));
        assert_eq!(config.selection(), SelectionPolicy::LongestDelayFirst);
    }

    #[test]
    fn builders_override_fields() {
        let config = MergeConfig::new(Time::new(5))
            .with_selection(SelectionPolicy::EnumerationOrder)
            .with_broadcast_time(Time::new(3));
        assert_eq!(config.broadcast_time(), Time::new(3));
        assert_eq!(config.selection(), SelectionPolicy::EnumerationOrder);
    }

    #[test]
    fn thread_env_values_parse_trim_and_reject_garbage() {
        let var = "CPG_TEST_THREADS_PARSE";
        assert_eq!(parse_thread_count(var, "4"), NonZeroUsize::new(4));
        // Whitespace padding is tolerated.
        assert_eq!(parse_thread_count(var, "  8\n"), NonZeroUsize::new(8));
        // Empty, whitespace-only and zero mean "automatic", silently.
        assert_eq!(parse_thread_count(var, ""), None);
        assert_eq!(parse_thread_count(var, "   "), None);
        assert_eq!(parse_thread_count(var, "0"), None);
        // Garbage falls back (and warns once, which we cannot capture here,
        // but must not panic or be accepted).
        assert_eq!(parse_thread_count(var, "fourteen"), None);
        assert_eq!(parse_thread_count(var, "-2"), None);
        assert_eq!(parse_thread_count(var, "4x"), None);
        assert_eq!(parse_thread_count(var, "fourteen"), None);
    }

    #[test]
    fn threads_from_env_reads_the_process_environment() {
        // The environment is process-global and tests run concurrently, so
        // every mutation goes through the serializing helper.
        with_env_var("CPG_TEST_THREADS_UNSET", None, || {
            assert_eq!(threads_from_env("CPG_TEST_THREADS_UNSET"), None);
        });
        with_env_var("CPG_TEST_THREADS_SET", Some("6"), || {
            assert_eq!(
                threads_from_env("CPG_TEST_THREADS_SET"),
                NonZeroUsize::new(6)
            );
        });
        with_env_var("CPG_TEST_THREADS_BAD", Some("lots"), || {
            assert_eq!(threads_from_env("CPG_TEST_THREADS_BAD"), None);
        });
    }

    #[test]
    fn with_env_var_restores_previous_values() {
        // The lock is held for the whole body, so the helper must not nest;
        // sequential calls check the save/restore instead.
        let var = "CPG_TEST_THREADS_RESTORE";
        with_env_var(var, Some("2"), || {
            assert_eq!(threads_from_env(var), NonZeroUsize::new(2));
        });
        assert_eq!(threads_from_env(var), None);
        let panicked = std::panic::catch_unwind(|| {
            with_env_var(var, Some("7"), || panic!("boom"));
        });
        assert!(panicked.is_err());
        // Restored even though the body panicked.
        assert_eq!(threads_from_env(var), None);
    }
}
