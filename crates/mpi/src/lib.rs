//! In-process message-passing runtime (the MPI substitute).
//!
//! The paper's distributed layer uses MPI (MVAPICH2) over InfiniBand.
//! Rust MPI bindings are thin and a real cluster is not available here, so
//! this crate supplies the same *programming model* in-process:
//!
//! * [`comm::Universe::run`] launches `P` rank threads executing the same
//!   SPMD closure; each rank owns its private state (data replication is
//!   the paper's chosen distribution: "each process has a complete set of
//!   data", §IV.A);
//! * [`comm::Comm`] provides the three collectives the algorithm needs —
//!   element-wise allreduce, allgather and scalar allreduce — over
//!   crossbeam channels. Each is fault-aware: it returns the set of ranks
//!   that did not contribute, or a [`CommError`], never a hang. A rank
//!   whose body panics is announced dead at once, and its panic reaches
//!   the caller of [`Universe::run`] with its own payload;
//! * every collective also *accrues simulated wire time* from a
//!   [`NetworkModel`] using the textbook cost expressions
//!   (`t_s·log P + t_w·m·(P−1)` etc., Grama et al. Table 4.1 — the same
//!   model the paper's §IV.C complexity analysis cites), so experiments
//!   can report communication costs for a Lonestar4-class fabric even
//!   though the bytes actually move through shared memory;
//! * [`recovery::run_distributed_ft`] implements the paper's Fig. 4
//!   algorithm on top — `OCT_MPI` (P ranks × 1 thread) and
//!   `OCT_MPI+CILK` (P ranks × p work-stealing threads), with
//!   replicated-memory accounting — as one driver: a [`FaultSpec`]
//!   schedules the crashes, drops, stragglers and worker panics it
//!   detects and recovers from, and [`FaultSpec::none`] is the plain run;
//! * [`data_dist::run_data_distributed`] is the other algorithm the paper
//!   names (each rank owns a slice of the quadrature points and builds
//!   its own `T_Q`), kept apart because re-dividing its data on a crash
//!   would change the far-field grouping: it runs on the same collectives
//!   and returns an error when a rank is absent.

pub mod comm;
pub mod data_dist;
pub mod drivers;
pub mod faults;
pub mod network;
pub mod recovery;

pub use comm::{Comm, CommError, Universe};
pub use data_dist::{run_data_distributed, DataDistributedRun};
pub use drivers::DistributedConfig;
pub use faults::{CrashFault, DropFault, FaultSpec, StragglerFault, WorkerPanicFault};
pub use network::NetworkModel;
pub use recovery::{run_distributed_ft, DistributedError, FtDistributedRun};
