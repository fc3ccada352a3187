//! # Mural — the multilingual relational algebra, pushed into the engine
//!
//! This crate is the paper's primary contribution: the **UniText** datatype
//! and the **LexEQUAL (ψ)** / **SemEQUAL (Ω)** operators implemented as
//! *first-class operators* of the `mlql-kernel` relational engine, plus
//! their cost models (Table 3), selectivity estimators (§3.4), composition
//! rules (Table 1), the M-Tree access method integration (§4.2.1), and the
//! outside-the-server baseline implementations (§5.3, §5.4).
//!
//! ## Quick start
//!
//! ```
//! use mlql_kernel::Session;
//! use mlql_mural::install;
//!
//! let mut db = Session::new_in_memory();
//! let mural = install(&mut db).unwrap();
//! db.execute("CREATE TABLE book (author UNITEXT, title TEXT)").unwrap();
//! db.execute("INSERT INTO book VALUES (unitext('Nehru', 'English'), 'Letters')").unwrap();
//! db.execute("INSERT INTO book VALUES (unitext('நேரு', 'Tamil'), 'Letters (ta)')").unwrap();
//! db.execute("SET lexequal.threshold = 2").unwrap();
//! let rows = db
//!     .query("SELECT title FROM book WHERE author LEXEQUAL unitext('Nehru','English') IN (English, Tamil)")
//!     .unwrap();
//! assert_eq!(rows.len(), 2);
//! # let _ = mural;
//! ```

#![forbid(unsafe_code)]

pub mod algebra;
pub mod cost;
pub mod functions;
pub mod install;
pub mod lexequal;
pub mod mdi;
pub mod mtree_am;
pub mod outside;
pub mod selectivity;
pub mod semequal;
pub mod types;

pub use install::{install, install_with_taxonomy, Mural};
pub use types::{unitext_datum, unitext_from_bytes, unitext_to_bytes};
