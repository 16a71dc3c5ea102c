//! Experiment-to-table formatting for the `figures` binary ([`figures`]),
//! the sweep plan ([`plan`]) and the cell store it runs over ([`memo`]),
//! shard fragments ([`shard`]) and the `bench timeline` warm-up curve
//! ([`timeline`]).

pub mod figures;
pub mod memo;
pub mod plan;
pub mod shard;
pub mod timeline;
