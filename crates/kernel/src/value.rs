//! Runtime values (`Datum`) and data types.
//!
//! Extension types follow the PostgreSQL model: the kernel stores them as
//! opaque byte payloads tagged with an [`ExtTypeId`]; all behaviour
//! (display, ordering, literal input) comes from support functions
//! registered in the catalog's type registry.  This is exactly the
//! mechanism `mlql-mural` uses to add `UniText` without the kernel knowing
//! anything about languages or phonemes.

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// Identifier of an extension type registered in the catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ExtTypeId(pub u32);

/// Static type of a column or expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    Bool,
    Int,
    Float,
    Text,
    /// An extension type (e.g. UniText).
    Ext(ExtTypeId),
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Bool => write!(f, "bool"),
            DataType::Int => write!(f, "int"),
            DataType::Float => write!(f, "float"),
            DataType::Text => write!(f, "text"),
            DataType::Ext(id) => write!(f, "ext#{}", id.0),
        }
    }
}

/// A runtime value.
///
/// `Text` and `Ext` payloads are reference-counted so that rows can be
/// cloned through joins and materializations without copying string bytes
/// (buffer-reuse guidance from the Rust Performance Book).
#[derive(Debug, Clone)]
pub enum Datum {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Text(Arc<str>),
    /// Extension value: opaque bytes + type tag.
    Ext {
        ty: ExtTypeId,
        bytes: Arc<[u8]>,
    },
}

impl Datum {
    /// Text helper.
    pub fn text(s: impl AsRef<str>) -> Datum {
        Datum::Text(Arc::from(s.as_ref()))
    }

    /// Extension helper.
    pub fn ext(ty: ExtTypeId, bytes: impl Into<Arc<[u8]>>) -> Datum {
        Datum::Ext {
            ty,
            bytes: bytes.into(),
        }
    }

    /// The value's runtime type; `None` for SQL NULL (untyped).
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Datum::Null => None,
            Datum::Bool(_) => Some(DataType::Bool),
            Datum::Int(_) => Some(DataType::Int),
            Datum::Float(_) => Some(DataType::Float),
            Datum::Text(_) => Some(DataType::Text),
            Datum::Ext { ty, .. } => Some(DataType::Ext(*ty)),
        }
    }

    /// Is this SQL NULL?
    pub fn is_null(&self) -> bool {
        matches!(self, Datum::Null)
    }

    /// Truthiness for WHERE clauses: NULL counts as false.
    pub fn is_true(&self) -> bool {
        matches!(self, Datum::Bool(true))
    }

    /// Integer accessor.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Datum::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Float accessor (Int widens).
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Datum::Float(f) => Some(*f),
            Datum::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// Text accessor.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Datum::Text(s) => Some(s),
            _ => None,
        }
    }

    /// Extension-bytes accessor.
    pub fn as_ext(&self) -> Option<(ExtTypeId, &[u8])> {
        match self {
            Datum::Ext { ty, bytes } => Some((*ty, bytes)),
            _ => None,
        }
    }

    /// A borrowed view of this value.
    #[inline]
    pub fn as_ref(&self) -> DatumRef<'_> {
        match self {
            Datum::Null => DatumRef::Null,
            Datum::Bool(b) => DatumRef::Bool(*b),
            Datum::Int(i) => DatumRef::Int(*i),
            Datum::Float(f) => DatumRef::Float(*f),
            Datum::Text(s) => DatumRef::Text(s),
            Datum::Ext { ty, bytes } => DatumRef::Ext { ty: *ty, bytes },
        }
    }

    /// SQL comparison for the built-in types; the same order as
    /// [`DatumRef::cmp_sql`].  Not written as a call to it: sorts and
    /// B-tree searches compare owned values, and going through two
    /// `as_ref` conversions made sorting 1M ints ~40–50 % slower (2-vCPU
    /// host).
    pub fn cmp_sql(&self, other: &Datum) -> Ordering {
        use Datum::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.partial_cmp(b).unwrap_or(Ordering::Equal),
            (Int(a), Float(b)) => (*a as f64).partial_cmp(b).unwrap_or(Ordering::Equal),
            (Float(a), Int(b)) => a.partial_cmp(&(*b as f64)).unwrap_or(Ordering::Equal),
            (Text(a), Text(b)) => a.as_ref().cmp(b.as_ref()),
            (Ext { bytes: a, .. }, Ext { bytes: b, .. }) => a.as_ref().cmp(b.as_ref()),
            (a, b) => discr(a.as_ref()).cmp(&discr(b.as_ref())),
        }
    }

    /// Equality with SQL numeric coercion.
    pub fn eq_sql(&self, other: &Datum) -> bool {
        if self.is_null() || other.is_null() {
            return false;
        }
        self.cmp_sql(other) == Ordering::Equal
    }
}

/// A value borrowed from wherever it lives: a [`Datum`]
/// ([`Datum::as_ref`]) or a field of a stored tuple
/// ([`crate::storage::read_field`]), so a predicate can read a heap page
/// image without copying any of it.  Equality, hashing, ordering and
/// display are the owned value's.
#[derive(Debug, Clone, Copy)]
pub enum DatumRef<'a> {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Text(&'a str),
    /// Extension value: opaque bytes + type tag.
    Ext {
        ty: ExtTypeId,
        bytes: &'a [u8],
    },
}

impl DatumRef<'_> {
    /// Is this SQL NULL?
    pub fn is_null(self) -> bool {
        matches!(self, DatumRef::Null)
    }

    /// Copy the value out into an owned [`Datum`].
    pub fn to_datum(self) -> Datum {
        match self {
            DatumRef::Null => Datum::Null,
            DatumRef::Bool(b) => Datum::Bool(b),
            DatumRef::Int(i) => Datum::Int(i),
            DatumRef::Float(f) => Datum::Float(f),
            DatumRef::Text(s) => Datum::text(s),
            DatumRef::Ext { ty, bytes } => Datum::ext(ty, bytes),
        }
    }

    /// SQL comparison for the built-in types.  Extension values compare by
    /// raw bytes here; type-aware comparison goes through the catalog's
    /// registered support function (the binder rewrites comparisons on
    /// extension types accordingly).  NULL compares less than everything
    /// (only used for sorting, not predicates).
    pub fn cmp_sql(self, other: DatumRef<'_>) -> Ordering {
        use DatumRef::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (Bool(a), Bool(b)) => a.cmp(&b),
            (Int(a), Int(b)) => a.cmp(&b),
            (Float(a), Float(b)) => a.partial_cmp(&b).unwrap_or(Ordering::Equal),
            (Int(a), Float(b)) => (a as f64).partial_cmp(&b).unwrap_or(Ordering::Equal),
            (Float(a), Int(b)) => a.partial_cmp(&(b as f64)).unwrap_or(Ordering::Equal),
            (Text(a), Text(b)) => a.cmp(b),
            (Ext { bytes: a, .. }, Ext { bytes: b, .. }) => a.cmp(b),
            // Heterogeneous comparisons order by type discriminant; the
            // binder rejects them before execution, this is sort-stability
            // insurance only.
            (a, b) => discr(a).cmp(&discr(b)),
        }
    }
}

fn discr(d: DatumRef<'_>) -> u8 {
    match d {
        DatumRef::Null => 0,
        DatumRef::Bool(_) => 1,
        DatumRef::Int(_) => 2,
        DatumRef::Float(_) => 3,
        DatumRef::Text(_) => 4,
        DatumRef::Ext { .. } => 5,
    }
}

impl fmt::Display for DatumRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatumRef::Null => write!(f, "NULL"),
            DatumRef::Bool(b) => write!(f, "{b}"),
            DatumRef::Int(i) => write!(f, "{i}"),
            DatumRef::Float(x) => write!(f, "{x}"),
            DatumRef::Text(s) => write!(f, "{s}"),
            DatumRef::Ext { ty, bytes } => write!(f, "ext#{}({} bytes)", ty.0, bytes.len()),
        }
    }
}

impl fmt::Display for Datum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_ref().fmt(f)
    }
}

impl PartialEq for DatumRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (DatumRef::Null, DatumRef::Null) => true,
            _ => !self.is_null() && !other.is_null() && self.cmp_sql(*other) == Ordering::Equal,
        }
    }
}

impl PartialEq for Datum {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Datum::Null, Datum::Null) => true,
            _ => !self.is_null() && !other.is_null() && self.cmp_sql(other) == Ordering::Equal,
        }
    }
}

/// Hash consistent with `PartialEq` above (ints and equal floats hash via
/// their f64 bits only when integral — we avoid cross-type joins on
/// float/int in practice; the binder coerces join keys to one type).
impl std::hash::Hash for DatumRef<'_> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            DatumRef::Null => 0u8.hash(state),
            DatumRef::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            DatumRef::Int(i) => {
                2u8.hash(state);
                (*i as f64).to_bits().hash(state);
            }
            DatumRef::Float(f) => {
                2u8.hash(state);
                f.to_bits().hash(state);
            }
            DatumRef::Text(s) => {
                4u8.hash(state);
                s.hash(state);
            }
            DatumRef::Ext { bytes, .. } => {
                5u8.hash(state);
                bytes.hash(state);
            }
        }
    }
}

impl std::hash::Hash for Datum {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_ref().hash(state)
    }
}

impl Eq for DatumRef<'_> {}
impl Eq for Datum {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_of_values() {
        assert_eq!(Datum::Int(1).data_type(), Some(DataType::Int));
        assert_eq!(Datum::Null.data_type(), None);
        assert_eq!(
            Datum::ext(ExtTypeId(7), vec![1u8, 2]).data_type(),
            Some(DataType::Ext(ExtTypeId(7)))
        );
    }

    #[test]
    fn null_semantics() {
        assert!(!Datum::Null.is_true());
        assert!(
            !Datum::Null.eq_sql(&Datum::Null),
            "NULL = NULL is not true in SQL"
        );
        assert_eq!(
            Datum::Null,
            Datum::Null,
            "but Rust Eq treats them equal for grouping"
        );
    }

    #[test]
    fn numeric_coercion() {
        assert!(Datum::Int(3).eq_sql(&Datum::Float(3.0)));
        assert_eq!(Datum::Int(2).cmp_sql(&Datum::Float(2.5)), Ordering::Less);
    }

    #[test]
    fn int_float_hash_consistency() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h = |d: &Datum| {
            let mut s = DefaultHasher::new();
            d.hash(&mut s);
            s.finish()
        };
        assert_eq!(h(&Datum::Int(42)), h(&Datum::Float(42.0)));
        assert_eq!(Datum::Int(42), Datum::Float(42.0));
    }

    #[test]
    fn text_ordering() {
        assert_eq!(Datum::text("a").cmp_sql(&Datum::text("b")), Ordering::Less);
        assert!(Datum::text("x").eq_sql(&Datum::text("x")));
    }

    #[test]
    fn display_rendering() {
        assert_eq!(Datum::Int(5).to_string(), "5");
        assert_eq!(Datum::text("hi").to_string(), "hi");
        assert_eq!(Datum::Null.to_string(), "NULL");
    }
}
