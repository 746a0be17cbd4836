//! Experiment harness regenerating every figure of the paper's
//! evaluation (§VI), plus the memory table and the EFTP/EDRP recovery
//! claims from §III.
//!
//! Each module computes one experiment's data; the `src/bin/` binaries
//! print them as tables. `EXPERIMENTS.md` at the workspace root records
//! paper-vs-measured for each.
//!
//! | binary | paper artefact |
//! |---|---|
//! | `fig5` | Fig. 5 — required MAC bandwidth, DAP vs TESLA++ |
//! | `fig6` | Fig. 6 — evolution trajectories and the ESS regime map |
//! | `fig7` | Fig. 7 — optimal buffer count vs attack level |
//! | `fig8` | Fig. 8 — game-guided vs naive defense cost |
//! | `memory_table` | §IV-D storage comparison (56 vs 280 bits) |
//! | `recovery` | §III EFTP recovery advantage + EDRP continuity |

pub mod ablation;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fleet;
pub mod recovery;
pub mod sweep;
pub mod table;
pub mod timer;
