//! System catalog: tables, extension types, operators, functions, access
//! methods, and per-column statistics.
//!
//! Extensibility mirrors PostgreSQL's object-relational catalog, which is
//! why the paper chose PostgreSQL ("featuring strong support for extensible
//! datatypes, functions, operators, and index methods", §4.1).  Everything
//! `mlql-mural` adds — the UniText type, the ψ/Ω operators with their cost
//! models and selectivity estimators, the M-Tree access method — goes
//! through the registration APIs here, never through kernel changes.

mod registry;
mod stats;

pub use registry::{
    ExtOperator, ExtTypeDef, FuncDef, OperatorKind, PrepareBatch, PreparedOperands,
    SelectivityInput, SessionVars,
};
pub use stats::{ColumnStats, TableStats, MCV_TARGET};

use crate::error::{Error, Result};
use crate::index::{AccessMethod, BTreeAm, IndexInstance};
use crate::schema::Schema;
use crate::storage::HeapFile;
use crate::value::{Datum, ExtTypeId};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::Arc;

/// Identifier of a table in the catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TableId(pub u32);

/// Metadata of one index.
pub struct IndexMeta {
    /// Index name (unique per catalog).
    pub name: String,
    /// Table the index belongs to.
    pub table: TableId,
    /// Indexed column (position in the table schema).
    pub column: usize,
    /// Access-method name (`"btree"`, `"mtree"`, ...).
    pub am: String,
    /// The live index structure.  RwLock: searches (`&self`) from
    /// concurrent sessions share a read guard; DML maintenance
    /// (`&mut self` insert/delete) takes the write guard.
    pub instance: RwLock<Box<dyn IndexInstance>>,
}

/// Metadata of one table.
pub struct TableMeta {
    /// Table id.
    pub id: TableId,
    /// Lower-cased name.
    pub name: String,
    /// Column layout.
    pub schema: Schema,
    /// Backing heap file.
    pub heap: HeapFile,
    /// Statistics from the last ANALYZE.
    pub stats: Mutex<TableStats>,
}

/// The system catalog.
pub struct Catalog {
    tables: Vec<Arc<TableMeta>>,
    by_name: HashMap<String, TableId>,
    indexes: Vec<Arc<IndexMeta>>,
    types: registry::TypeRegistry,
    operators: registry::OperatorRegistry,
    functions: registry::FunctionRegistry,
    access_methods: HashMap<String, Arc<dyn AccessMethod>>,
}

impl Default for Catalog {
    fn default() -> Self {
        Self::new()
    }
}

impl Catalog {
    /// A catalog with the built-in B-tree access method registered.
    pub fn new() -> Self {
        let mut access_methods: HashMap<String, Arc<dyn AccessMethod>> = HashMap::new();
        access_methods.insert("btree".into(), Arc::new(BTreeAm));
        Catalog {
            tables: Vec::new(),
            by_name: HashMap::new(),
            indexes: Vec::new(),
            types: registry::TypeRegistry::new(),
            operators: registry::OperatorRegistry::new(),
            functions: registry::FunctionRegistry::new(),
            access_methods,
        }
    }

    // ---------------- tables ----------------

    /// Create a table; errors on duplicate names.
    pub fn create_table(&mut self, name: &str, schema: Schema, heap: HeapFile) -> Result<TableId> {
        let lower = name.to_lowercase();
        if self.by_name.contains_key(&lower) {
            return Err(Error::Catalog(format!("table {lower:?} already exists")));
        }
        let id = TableId(self.tables.len() as u32);
        self.tables.push(Arc::new(TableMeta {
            id,
            name: lower.clone(),
            schema,
            heap,
            stats: Mutex::new(TableStats::default()),
        }));
        self.by_name.insert(lower, id);
        Ok(id)
    }

    /// Drop a table by name.  The heap file remains in the storage layer
    /// (space reclamation is out of scope); its indexes are dropped.
    pub fn drop_table(&mut self, name: &str) -> Result<()> {
        let lower = name.to_lowercase();
        let id = self
            .by_name
            .remove(&lower)
            .ok_or_else(|| Error::Catalog(format!("no table {lower:?}")))?;
        self.indexes.retain(|i| i.table != id);
        Ok(())
    }

    /// Look a table up by name.
    pub fn table(&self, name: &str) -> Result<Arc<TableMeta>> {
        let lower = name.to_lowercase();
        self.by_name
            .get(&lower)
            .map(|&id| Arc::clone(&self.tables[id.0 as usize]))
            .ok_or_else(|| Error::Catalog(format!("no table {lower:?}")))
    }

    /// Look a table up by id.
    pub fn table_by_id(&self, id: TableId) -> Result<Arc<TableMeta>> {
        self.tables
            .get(id.0 as usize)
            .cloned()
            .ok_or_else(|| Error::Catalog(format!("no table id {id:?}")))
    }

    /// All live tables.
    pub fn tables(&self) -> impl Iterator<Item = &Arc<TableMeta>> {
        self.by_name.values().map(|&id| &self.tables[id.0 as usize])
    }

    /// Whether a table name is live (cheap existence probe).
    pub fn has_table(&self, name: &str) -> bool {
        self.by_name.contains_key(&name.to_lowercase())
    }

    /// Every table slot in id order, including dropped ones.  Checkpoint
    /// snapshots persist dead slots too, because table ids are vec
    /// positions: replaying a post-snapshot `CREATE TABLE` must assign the
    /// same id it originally got, which requires the dropped slots to keep
    /// occupying their positions.
    pub fn table_slots(&self) -> &[Arc<TableMeta>] {
        &self.tables
    }

    /// Whether a slot is live (dropped tables stay in `table_slots` but
    /// leave the name map).
    pub fn is_live(&self, id: TableId) -> bool {
        self.tables
            .get(id.0 as usize)
            .is_some_and(|t| self.by_name.get(&t.name) == Some(&id))
    }

    /// Re-create a table slot from a checkpoint snapshot.  Slots must be
    /// restored in id order; `live` distinguishes dropped tables (which
    /// occupy their slot but are not name-resolvable).
    pub fn restore_table(
        &mut self,
        name: &str,
        schema: Schema,
        heap: HeapFile,
        live: bool,
    ) -> Result<TableId> {
        let lower = name.to_lowercase();
        if live && self.by_name.contains_key(&lower) {
            return Err(Error::Catalog(format!(
                "snapshot restore: table {lower:?} already exists"
            )));
        }
        let id = TableId(self.tables.len() as u32);
        self.tables.push(Arc::new(TableMeta {
            id,
            name: lower.clone(),
            schema,
            heap,
            stats: Mutex::new(TableStats::default()),
        }));
        if live {
            self.by_name.insert(lower, id);
        }
        Ok(id)
    }

    /// Create an (empty) index on a table; the DDL executor back-fills it.
    pub fn create_index(
        &mut self,
        table: &str,
        index_name: &str,
        column: usize,
        am_name: &str,
    ) -> Result<Arc<IndexMeta>> {
        let am = self
            .access_methods
            .get(am_name)
            .ok_or_else(|| Error::Catalog(format!("no access method {am_name:?}")))?;
        let meta = self.table(table)?;
        if self.indexes.iter().any(|i| i.name == index_name) {
            return Err(Error::Catalog(format!(
                "index {index_name:?} already exists"
            )));
        }
        if column >= meta.schema.len() {
            return Err(Error::Catalog(format!("column {column} out of range")));
        }
        let idx = Arc::new(IndexMeta {
            name: index_name.to_string(),
            table: meta.id,
            column,
            am: am_name.to_string(),
            instance: RwLock::new(am.create()?),
        });
        self.indexes.push(Arc::clone(&idx));
        Ok(idx)
    }

    /// Drop an index by name.
    pub fn drop_index(&mut self, index_name: &str) -> Result<()> {
        let before = self.indexes.len();
        self.indexes.retain(|i| i.name != index_name);
        if self.indexes.len() == before {
            return Err(Error::Catalog(format!("no index {index_name:?}")));
        }
        Ok(())
    }

    /// Indexes of a table.
    pub fn indexes_of(&self, table: TableId) -> Vec<Arc<IndexMeta>> {
        self.indexes
            .iter()
            .filter(|i| i.table == table)
            .cloned()
            .collect()
    }

    /// All indexes (recovery rebuild walks this).
    pub fn all_indexes(&self) -> &[Arc<IndexMeta>] {
        &self.indexes
    }

    // ---------------- registries ----------------

    /// Register an extension type; returns its id.
    pub fn register_type(&mut self, def: ExtTypeDef) -> ExtTypeId {
        self.types.register(def)
    }

    /// Look up an extension type by name.
    pub fn type_by_name(&self, name: &str) -> Option<(ExtTypeId, &ExtTypeDef)> {
        self.types.by_name(name)
    }

    /// Look up an extension type by id.
    pub fn type_by_id(&self, id: ExtTypeId) -> Option<&ExtTypeDef> {
        self.types.by_id(id)
    }

    /// `d` with the derived fields of its extension type stripped
    /// ([`ExtTypeDef::identity`]), or `None` when it has none to strip.
    pub fn identity_of(&self, d: &Datum) -> Option<Datum> {
        let Datum::Ext { ty, bytes } = d else {
            return None;
        };
        let identity = self.type_by_id(*ty)?.identity.as_ref()?;
        let id = identity(bytes);
        (id.len() < bytes.len()).then(|| Datum::ext(*ty, id))
    }

    /// Register an extension operator (e.g. LexEQUAL).
    pub fn register_operator(&mut self, op: ExtOperator) {
        self.operators.register(op);
    }

    /// Look up an operator by name (case-insensitive).
    pub fn operator(&self, name: &str) -> Option<&ExtOperator> {
        self.operators.get(name)
    }

    /// Register a scalar function (e.g. `unitext(text, text)`).
    pub fn register_function(&mut self, f: FuncDef) {
        self.functions.register(f);
    }

    /// Look up a scalar function.
    pub fn function(&self, name: &str) -> Option<&FuncDef> {
        self.functions.get(name)
    }

    /// Register an access method (the GiST-equivalent hook).
    pub fn register_access_method(&mut self, am: Arc<dyn AccessMethod>) {
        self.access_methods.insert(am.name().to_string(), am);
    }

    /// Look up an access method.
    pub fn access_method(&self, name: &str) -> Option<&Arc<dyn AccessMethod>> {
        self.access_methods.get(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;
    use crate::storage::{BufferPool, MemBackend};
    use crate::value::DataType;

    fn pool() -> BufferPool {
        BufferPool::new(Box::new(MemBackend::new()), 16)
    }

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("name", DataType::Text),
        ])
    }

    #[test]
    fn create_and_lookup_table() {
        let pool = pool();
        let mut cat = Catalog::new();
        let heap = HeapFile::create(&pool).unwrap();
        let id = cat.create_table("Book", schema(), heap).unwrap();
        let meta = cat.table("book").unwrap();
        assert_eq!(meta.id, id);
        assert_eq!(meta.schema.len(), 2);
        assert!(
            cat.create_table("BOOK", schema(), heap).is_err(),
            "duplicate"
        );
        assert!(cat.table("missing").is_err());
    }

    #[test]
    fn drop_table_removes_name_and_indexes() {
        let pool = pool();
        let mut cat = Catalog::new();
        let heap = HeapFile::create(&pool).unwrap();
        let id = cat.create_table("t", schema(), heap).unwrap();
        cat.create_index("t", "t_id", 0, "btree").unwrap();
        cat.drop_table("t").unwrap();
        assert!(cat.table("t").is_err());
        assert!(cat.indexes_of(id).is_empty());
        assert!(cat.drop_table("t").is_err());
    }

    #[test]
    fn create_index_validates() {
        let pool = pool();
        let mut cat = Catalog::new();
        let heap = HeapFile::create(&pool).unwrap();
        let id = cat.create_table("t", schema(), heap).unwrap();
        cat.create_index("t", "t_id_idx", 0, "btree").unwrap();
        assert_eq!(cat.indexes_of(id).len(), 1);
        assert!(
            cat.create_index("t", "t_id_idx", 0, "btree").is_err(),
            "dup index"
        );
        assert!(
            cat.create_index("t", "x", 9, "btree").is_err(),
            "bad column"
        );
        assert!(cat.create_index("t", "y", 0, "hash").is_err(), "unknown am");
    }

    #[test]
    fn drop_index_by_name() {
        let pool = pool();
        let mut cat = Catalog::new();
        let heap = HeapFile::create(&pool).unwrap();
        let id = cat.create_table("t", schema(), heap).unwrap();
        cat.create_index("t", "i1", 0, "btree").unwrap();
        cat.drop_index("i1").unwrap();
        assert!(cat.indexes_of(id).is_empty());
        assert!(cat.drop_index("i1").is_err());
    }

    #[test]
    fn builtin_btree_am_registered() {
        let cat = Catalog::new();
        let am = cat.access_method("btree").unwrap();
        assert_eq!(am.name(), "btree");
        assert!(am.strategies().contains(&"eq"));
    }
}
