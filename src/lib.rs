//! # mlql — multilingual query operators in a relational engine
//!
//! Umbrella crate for the reproduction of *On Pushing Multilingual Query
//! Operators into Relational Engines* (Kumaran, Chowdary & Haritsa,
//! ICDE 2006).  Re-exports every component crate; see the README for the
//! architecture overview and `examples/` for runnable entry points.
//!
//! ```
//! use mlql::kernel::Session;
//! use mlql::mural::install;
//!
//! let mut db = Session::new_in_memory();
//! let _mural = install(&mut db).unwrap();
//! db.execute("CREATE TABLE book (author UNITEXT)").unwrap();
//! db.execute("INSERT INTO book VALUES (unitext('Nehru', 'English'))").unwrap();
//! let n = db.query("SELECT count(*) FROM book WHERE author LEXEQUAL unitext('Neru','English')").unwrap();
//! assert_eq!(n[0][0].as_int(), Some(1));
//! ```

pub use mlql_datagen as datagen;
pub use mlql_kernel as kernel;
pub use mlql_mtree as mtree;
pub use mlql_mural as mural;
pub use mlql_phonetics as phonetics;
pub use mlql_taxonomy as taxonomy;
pub use mlql_unitext as unitext;
