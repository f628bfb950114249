//! The crate's error types: partition invariant violations and the
//! crate-level [`SelectError`] that wraps every failure task selection
//! can report.

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

/// The crate-level error: any failure this crate's selection and
/// partitioning APIs can report, with `From` conversions from the
/// specific kinds so callers can use `?` uniformly.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SelectError {
    /// A task partition violated a Multiscalar invariant.
    Partition(PartitionError),
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
            SelectError::Partition(e) => write!(f, "invalid task partition: {e}"),
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

impl Error for SelectError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SelectError::Partition(e) => Some(e),
            SelectError::UnknownPolicy { .. } => None,
        }
    }
}

/// The nearest candidate within a conservative edit distance (at most 3
/// edits and fewer edits than the name is long), for "did you mean"
/// suggestions. Mirrors the bench crate's sweep/benchmark suggestions.
pub(crate) fn closest(name: &str, candidates: &[&'static str]) -> Option<&'static str> {
    candidates
        .iter()
        .map(|c| (edit_distance(name, c), *c))
        .min()
        .filter(|&(d, _)| d <= 3 && d < name.len())
        .map(|(_, c)| c)
}

/// Levenshtein distance over bytes (names are ASCII).
fn edit_distance(a: &str, b: &str) -> usize {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    let mut row: Vec<usize> = (0..=b.len()).collect();
    for (i, &ca) in a.iter().enumerate() {
        let mut prev = row[0];
        row[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let cost = if ca == cb { 0 } else { 1 };
            let next = (prev + cost).min(row[j] + 1).min(row[j + 1] + 1);
            prev = row[j + 1];
            row[j + 1] = next;
        }
    }
    row[b.len()]
}

impl From<PartitionError> for SelectError {
    fn from(e: PartitionError) -> Self {
        SelectError::Partition(e)
    }
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
}
