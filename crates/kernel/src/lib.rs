//! # mlql-kernel — a single-node relational engine
//!
//! The PostgreSQL stand-in for the reproduction of *On Pushing Multilingual
//! Query Operators into Relational Engines* (ICDE 2006).  The paper's
//! contribution is evaluated *against* engine machinery — an extensible
//! catalog, a cost-based optimizer with end-biased histograms, a buffer
//! pool whose page I/O drives the cost model, GiST-style extensible access
//! methods, and a procedural-language runtime for the outside-the-server
//! baseline — so this crate provides all of it, from scratch.
//!
//! Architecture (bottom-up):
//!
//! * [`storage`] — 8 KiB slotted pages, pluggable backends (memory / file),
//!   a buffer pool with clock eviction and I/O accounting, heap files, and
//!   a redo-only write-ahead log.
//! * [`catalog`] — tables, columns, **extension types**, **extension
//!   operators** (with cost & selectivity hooks — how Mural's ψ and Ω get
//!   first-class treatment), **access methods** (B+Tree built in; M-Tree
//!   registered by `mlql-mural` exactly as the paper used GiST), and
//!   per-column statistics.
//! * [`expr`] — typed expression trees and evaluation.
//! * [`plan`] — logical and physical plans, `EXPLAIN` rendering.
//! * [`opt`] — rewrite rules, cardinality estimation (end-biased
//!   histograms, §3.4.1 of the paper), and the cost model.
//! * [`exec`] — Volcano-style executors.
//! * [`sql`] — a small SQL dialect with extension infix operators
//!   (`author LEXEQUAL unitext('Nehru','English') IN (English, Hindi)`).
//! * [`pl`] — an interpreted procedural language with an SPI, used to
//!   implement the paper's outside-the-server baselines honestly: its
//!   slowness comes from interpretation, function-manager argument
//!   marshalling and per-statement SQL processing, not from sleeps.
//! * [`obs`] — observability: process-wide metrics registry with
//!   Prometheus/JSON exposition, per-query trace spans, and the
//!   per-operator instrumentation behind `EXPLAIN ANALYZE`.
//! * [`engine`] — the shared, thread-safe [`engine::Engine`] (catalog +
//!   buffer pool + WAL + plan cache) and per-connection
//!   [`engine::Session`]s, the one way in; SELECTs from different sessions
//!   run in parallel, writers are serialized.
//! * [`recovery`] — durable open: checkpoint restore, commit-gated WAL
//!   replay, and index rebuild from the recovered heaps; [`snapshot`]
//!   writes the checkpoints it restores.

pub mod catalog;
pub mod engine;
pub mod error;
pub mod exec;
pub mod expr;
pub mod index;
pub mod obs;
pub mod opt;
pub mod pl;
pub mod plan;
pub mod recovery;
pub mod schema;
pub mod snapshot;
pub mod sql;
pub mod storage;
pub mod txn;
pub mod value;

pub use engine::{Engine, QueryResult, Session};
pub use error::{Error, Result};
pub use schema::{Column, Schema};
pub use value::{DataType, Datum, ExtTypeId};

/// Old name of [`Session`], kept only because the frozen benchmark crate
/// `crates/workload` still spells it; the next benchmark change renames
/// those uses and deletes this alias.
#[doc(hidden)]
pub type Database = Session;
