//! The crate's error types: partition invariant violations and the
//! [`SelectError`] policy lookup reports, plus the nearest-name helper
//! behind every "did you mean" suggestion in the workspace.

use std::error::Error;
use std::fmt;

use ms_ir::{BlockId, FuncId};

use crate::task::TaskId;

/// A violated Multiscalar task invariant, reported by
/// [`TaskPartition::validate`](crate::TaskPartition::validate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum PartitionError {
    /// A reachable block belongs to no task.
    Uncovered {
        /// Function containing the block.
        func: FuncId,
        /// The uncovered block.
        block: BlockId,
    },
    /// A task block is unreachable from the task entry within the task.
    Disconnected {
        /// Function containing the task.
        func: FuncId,
        /// The disconnected task.
        task: TaskId,
        /// The unreachable block.
        block: BlockId,
    },
    /// An edge from outside a task targets a non-entry block.
    SideEntry {
        /// Function containing the task.
        func: FuncId,
        /// The violated task.
        task: TaskId,
        /// The non-entry block targeted from outside.
        block: BlockId,
        /// The offending predecessor block.
        from: BlockId,
    },
    /// A function's entry block is not a task entry.
    EntryNotTaskEntry {
        /// The function.
        func: FuncId,
        /// Its entry block.
        block: BlockId,
    },
    /// The return block of a non-included call is not a task entry.
    ReturnNotTaskEntry {
        /// Function containing the call.
        func: FuncId,
        /// The return block that should start a task.
        block: BlockId,
    },
}

impl fmt::Display for PartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionError::Uncovered { func, block } => {
                write!(f, "reachable block {func}:{block} belongs to no task")
            }
            PartitionError::Disconnected { func, task, block } => {
                write!(f, "block {func}:{block} of task {task} is unreachable from its entry")
            }
            PartitionError::SideEntry { func, task, block, from } => {
                write!(f, "edge {func}:{from} -> {block} enters task {task} at a non-entry block")
            }
            PartitionError::EntryNotTaskEntry { func, block } => {
                write!(f, "function entry {func}:{block} is not a task entry")
            }
            PartitionError::ReturnNotTaskEntry { func, block } => {
                write!(f, "call return block {func}:{block} is not a task entry")
            }
        }
    }
}

impl Error for PartitionError {}

/// A failure resolving a selection policy by name.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SelectError {
    /// A policy name is not a [`crate::Strategy`] label; carries the
    /// nearest label when one is plausibly close.
    UnknownPolicy {
        /// The name that failed to resolve.
        name: String,
        /// The closest strategy label, if within editing distance.
        suggestion: Option<&'static str>,
    },
}

impl fmt::Display for SelectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelectError::UnknownPolicy { name, suggestion } => {
                write!(f, "unknown selection policy `{name}`")?;
                if let Some(s) = suggestion {
                    write!(f, " (did you mean `{s}`?)")?;
                }
                Ok(())
            }
        }
    }
}

impl Error for SelectError {}

/// The candidate closest to `name` by edit distance, if within a
/// suggestion-worthy bound (≤ 3 edits, and fewer than the name's own
/// length — so wild guesses don't produce absurd suggestions). Every
/// "did you mean" suggestion in the workspace comes from here.
pub fn closest(name: &str, candidates: &[&'static str]) -> Option<&'static str> {
    let best = candidates.iter().map(|c| (edit_distance(name, c), *c)).min()?;
    (best.0 <= 3 && best.0 < name.len().max(1)).then_some(best.1)
}

/// Levenshtein distance, small-string implementation (both operands are
/// short command-line words).
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_for_all_variants() {
        let cases = [
            PartitionError::Uncovered { func: FuncId::new(0), block: BlockId::new(1) },
            PartitionError::Disconnected {
                func: FuncId::new(0),
                task: TaskId::new(2),
                block: BlockId::new(1),
            },
            PartitionError::SideEntry {
                func: FuncId::new(0),
                task: TaskId::new(2),
                block: BlockId::new(1),
                from: BlockId::new(3),
            },
            PartitionError::EntryNotTaskEntry { func: FuncId::new(0), block: BlockId::new(0) },
            PartitionError::ReturnNotTaskEntry { func: FuncId::new(0), block: BlockId::new(9) },
        ];
        for c in cases {
            assert!(!c.to_string().is_empty());
        }
    }

    #[test]
    fn edit_distance_basics() {
        assert_eq!(edit_distance("", "abc"), 3);
        assert_eq!(edit_distance("figure5", "figure5"), 0);
        assert_eq!(edit_distance("figure4", "figure5"), 1);
        assert_eq!(edit_distance("tresholds", "thresholds"), 1);
    }

    #[test]
    fn closest_suggests_near_names_only() {
        let names = &["figure5", "table1", "thresholds"];
        assert_eq!(closest("tresholds", names), Some("thresholds"));
        assert_eq!(closest("figure", names), Some("figure5"));
        assert_eq!(closest("zzzzzzzzzzzz", names), None);
    }
}
