//! Offline stand-in for the [`serde`](https://crates.io/crates/serde) crate.
//!
//! The workspace annotates its data types with `#[derive(Serialize,
//! Deserialize)]` so that a real serde can be dropped in when the build
//! environment has registry access. This shim streams JSON directly, with
//! no intermediate data model:
//!
//! * [`Serialize::serialize`] writes JSON text straight into an [`Output`]:
//!   a `Vec<u8>` (a wire frame, a snapshot file) or anything else that
//!   takes bytes, such as a hasher that never stores them.
//! * [`Deserialize::deserialize`] pulls values out of a [`Deserializer`],
//!   a parser over the payload text that builds nothing but the target
//!   type. Unknown keys are skipped (but still checked as JSON), the first
//!   of duplicate keys wins, and a missing field reads as JSON `null`, so
//!   `Option` fields may be left out.
//! * Both methods have *defaulted* bodies, so marker impls
//!   (`impl Serialize for X {}`) compile: they write `null` and refuse to
//!   read. The derive macros generate real bodies for named structs, tuple
//!   structs and unit-only enums, and fall back to marker impls for
//!   shapes they cannot handle (data-carrying enums).
//! * [`json`] holds the entry points ([`json::to_string`],
//!   [`json::from_str`]) and the parser. Finite floats are written in
//!   Rust's shortest round-trip form, so text → value is exact; the bare
//!   literals `NaN`, `Infinity` and `-Infinity` carry the non-finite floats
//!   that scaling fits legitimately produce.
//!
//! Swapping this crate for the real `serde` remains a manifest-plus-codec
//! change: the derive surface is a strict subset of serde's.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

pub mod json;

pub use json::Deserializer;
pub use serde_derive::{Deserialize, Serialize};

/// A (de)serialization error: a plain message, as in `serde::de::Error`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl Error {
    /// An error with a custom message.
    pub fn custom(message: impl fmt::Display) -> Self {
        Error(message.to_string())
    }

    /// A required struct field was absent.
    pub fn missing_field(name: &str) -> Self {
        Error(format!("missing field `{name}`"))
    }

    /// An enum string named no known variant.
    pub fn unknown_variant(name: &str) -> Self {
        Error(format!("unknown variant `{name}`"))
    }

    /// The value had the wrong shape for the requested type; `found`
    /// describes it (`"null"`, `"a string"`, `"an integer"`, ...).
    pub fn invalid_type(expected: &str, found: &str) -> Self {
        Error(format!("invalid type: expected {expected}, found {found}"))
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for Error {}

/// Where serialized JSON text goes.
pub trait Output {
    /// Appends `bytes`, which are always whole UTF-8 sequences.
    fn write(&mut self, bytes: &[u8]);
}

impl Output for Vec<u8> {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// Stand-in for `serde::Serialize` with a defaulted body so marker impls
/// (`impl Serialize for X {}`) keep compiling.
pub trait Serialize {
    /// Writes `self` as JSON text. The default (marker impls) writes
    /// `null`.
    fn serialize<O: Output>(&self, out: &mut O) {
        out.write(b"null");
    }
}

/// Stand-in for `serde::Deserialize` with a defaulted body so marker impls
/// keep compiling.
pub trait Deserialize<'de>: Sized {
    /// Reads one value of `Self` from `de`. The default (marker impls)
    /// always errors.
    fn deserialize(de: &mut Deserializer<'de>) -> Result<Self, Error> {
        let _ = de;
        Err(Error::custom(
            "deserialization is not implemented for this type under the offline serde shim",
        ))
    }
}

macro_rules! impl_integer {
    ($read:ident: $($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize<O: Output>(&self, out: &mut O) {
                json::write_number(out, format_args!("{self}"));
            }
        }
        impl<'de> Deserialize<'de> for $t {
            fn deserialize(de: &mut Deserializer<'de>) -> Result<Self, Error> {
                <$t>::try_from(de.$read()?).map_err(|_| Error::custom("integer out of range"))
            }
        }
    )*};
}

impl_integer!(u64: u8, u16, u32, u64, usize);
impl_integer!(i64: i8, i16, i32, i64, isize);

macro_rules! impl_scalar {
    ($($t:ty: |$value:ident, $out:ident| $write:expr, |$de:ident| $read:expr;)*) => {$(
        impl Serialize for $t {
            fn serialize<O: Output>(&self, $out: &mut O) {
                let $value = self;
                $write
            }
        }
        impl<'de> Deserialize<'de> for $t {
            fn deserialize($de: &mut Deserializer<'de>) -> Result<Self, Error> {
                $read
            }
        }
    )*};
}

impl_scalar! {
    f64: |value, out| json::write_f64(out, *value), |de| de.f64();
    f32: |value, out| json::write_f64(out, f64::from(*value)), |de| de.f64().map(|f| f as f32);
    bool: |value, out| out.write(if *value { b"true" } else { b"false" }), |de| de.bool();
    String: |value, out| json::write_str(out, value), |de| de.str("a string").map(String::from);
}

impl Serialize for str {
    fn serialize<O: Output>(&self, out: &mut O) {
        json::write_str(out, self);
    }
}

/// The unit value writes `null`, as in serde.
impl Serialize for () {}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize<O: Output>(&self, out: &mut O) {
        T::serialize(self, out);
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize<O: Output>(&self, out: &mut O) {
        match self {
            Some(inner) => inner.serialize(out),
            None => out.write(b"null"),
        }
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Option<T> {
    fn deserialize(de: &mut Deserializer<'de>) -> Result<Self, Error> {
        if de.take_null()? {
            Ok(None)
        } else {
            T::deserialize(de).map(Some)
        }
    }
}

fn serialize_seq<'a, O: Output, T: Serialize + 'a>(
    out: &mut O,
    items: impl IntoIterator<Item = &'a T>,
) {
    out.write(b"[");
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.write(b",");
        }
        item.serialize(out);
    }
    out.write(b"]");
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize<O: Output>(&self, out: &mut O) {
        serialize_seq(out, self);
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Vec<T> {
    fn deserialize(de: &mut Deserializer<'de>) -> Result<Self, Error> {
        let mut items = Vec::new();
        de.seq(|de, _| {
            items.push(T::deserialize(de)?);
            Ok(())
        })?;
        Ok(items)
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize<O: Output>(&self, out: &mut O) {
        serialize_seq(out, self);
    }
}

impl<'de, T: Deserialize<'de>, const N: usize> Deserialize<'de> for [T; N] {
    fn deserialize(de: &mut Deserializer<'de>) -> Result<Self, Error> {
        let items: Vec<T> = Vec::deserialize(de)?;
        <[T; N]>::try_from(items)
            .map_err(|_| Error::custom(format!("expected a sequence of length {N}")))
    }
}

macro_rules! impl_tuple {
    ($(($first:ident : $first_index:tt $(, $name:ident : $index:tt)*);)*) => {$(
        impl<$first: Serialize $(, $name: Serialize)*> Serialize for ($first, $($name,)*) {
            fn serialize<O: Output>(&self, out: &mut O) {
                out.write(b"[");
                self.$first_index.serialize(out);
                $(
                    out.write(b",");
                    self.$index.serialize(out);
                )*
                out.write(b"]");
            }
        }
        impl<'de, $first: Deserialize<'de> $(, $name: Deserialize<'de>)*> Deserialize<'de>
            for ($first, $($name,)*)
        {
            #[allow(non_snake_case)]
            fn deserialize(de: &mut Deserializer<'de>) -> Result<Self, Error> {
                let mut $first = None;
                $(let mut $name = None;)*
                let len = de.seq(|de, index| {
                    match index {
                        $first_index => $first = Some($first::deserialize(de)?),
                        $($index => $name = Some($name::deserialize(de)?),)*
                        _ => de.skip()?,
                    }
                    Ok(())
                })?;
                let arity = [$first_index $(, $index)*].len();
                match ($first, $($name,)*) {
                    (Some($first), $(Some($name),)*) if len == arity => Ok(($first, $($name,)*)),
                    _ => Err(Error::custom(format!(
                        "expected a sequence of length {arity}, found {len}"
                    ))),
                }
            }
        }
    )*};
}

impl_tuple! {
    (A: 0);
    (A: 0, B: 1);
    (A: 0, B: 1, C: 2);
    (A: 0, B: 1, C: 2, D: 3);
}

/// Helpers invoked by the generated `Deserialize` bodies and by
/// hand-written impls.
pub mod de {
    use super::{Deserialize, Deserializer, Error};

    /// Reads the value of the named struct field `name`.
    pub fn field<'de, T: Deserialize<'de>>(
        de: &mut Deserializer<'de>,
        name: &str,
    ) -> Result<T, Error> {
        T::deserialize(de).map_err(|e| Error::custom(format!("field `{name}`: {e}")))
    }

    /// The value of field `name` once the whole map has been read: the
    /// value found, or else what `T` reads from `null` (so a missing
    /// `Option` field is `None`), or else a missing-field error.
    pub fn required<'de, T: Deserialize<'de>>(slot: Option<T>, name: &str) -> Result<T, Error> {
        match slot {
            Some(value) => Ok(value),
            None => {
                T::deserialize(&mut Deserializer::null()).map_err(|_| Error::missing_field(name))
            }
        }
    }

    /// Reads tuple-struct element `index`.
    pub fn element<'de, T: Deserialize<'de>>(
        de: &mut Deserializer<'de>,
        index: usize,
    ) -> Result<T, Error> {
        T::deserialize(de).map_err(|e| Error::custom(format!("element {index}: {e}")))
    }

    /// Tuple-struct element `index` once the whole sequence has been read.
    pub fn required_element<T>(slot: Option<T>, index: usize) -> Result<T, Error> {
        slot.ok_or_else(|| Error::custom(format!("missing tuple element {index}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T>(value: &T) -> T
    where
        T: Serialize + for<'de> Deserialize<'de>,
    {
        json::from_str(&json::to_string(value)).unwrap()
    }

    #[test]
    fn primitives_round_trip() {
        assert_eq!(round_trip(&42u64), 42);
        assert_eq!(round_trip(&u64::MAX), u64::MAX);
        assert_eq!(round_trip(&-7i64), -7);
        assert_eq!(round_trip(&i64::MIN), i64::MIN);
        assert!(round_trip(&true));
        assert_eq!(round_trip(&"hi".to_string()), "hi");
        assert_eq!(round_trip(&1.5f64), 1.5);
        assert_eq!(round_trip(&0.25f32), 0.25);
    }

    #[test]
    fn options_vectors_tuples_and_arrays_round_trip() {
        let none: Option<u64> = None;
        assert_eq!(round_trip(&none), None);
        assert_eq!(round_trip(&Some(3u64)), Some(3));
        assert_eq!(round_trip(&vec![1u64, 2, 3]), vec![1, 2, 3]);
        let t = (1u64, -2i64, 0.5f64);
        assert_eq!(round_trip(&t), t);
        assert_eq!(round_trip(&[4u64, 5]), [4, 5]);
    }

    #[test]
    fn out_of_range_integers_error() {
        assert!(json::from_str::<u32>("18446744073709551615").is_err());
        assert!(json::from_str::<u64>("-1").is_err());
        assert!(json::from_str::<i8>("-129").is_err());
    }

    #[test]
    fn marker_impls_still_compile_and_default() {
        struct Opaque;
        impl Serialize for Opaque {}
        impl<'de> Deserialize<'de> for Opaque {}
        assert_eq!(json::to_string(&Opaque), "null");
        assert!(json::from_str::<Opaque>("null").is_err());
    }
}
