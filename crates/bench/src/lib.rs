//! Shared experiment-to-table formatting for the `figures` binary and the
//! Criterion benches ([`figures`]), the sweep plan ([`plan`]) and the cell
//! store it runs over ([`memo`]).

pub mod figures;
pub mod memo;
pub mod plan;
pub mod shard;
pub mod throughput;
pub mod timeline;
