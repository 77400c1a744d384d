//! The [`Snap`] trait: one declaration of how a value enters and leaves a
//! snapshot body, implemented here once for the primitives and the std
//! container shapes, and for component structs by [`snap_fields!`].
//!
//! Two container behaviours exist, chosen by type:
//!
//! - *Dynamic* containers (`Vec`, `VecDeque`, `Option`, `BTreeMap`,
//!   `BTreeSet`) are rebuilt from the image: the length prefix is bounded by
//!   [`SnapReader::bounded_len`] against `T::MIN_BYTES` before anything is
//!   allocated, and every element starts from `T::default()`.
//! - *Fixed-shape* sequences (`[T]`, `[T; N]`) are loaded in place: their
//!   shape is a function of the configuration the receiving system was built
//!   from, so the stored length must equal the receiver's or the load fails
//!   with [`SnapError::BadValue`]. [`snap_fields!`] reaches this behaviour
//!   for a `Vec` or `Option` field through the `fixed` marker.
//!
//! [`snap_fields!`]: crate::snap_fields

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::{SnapError, SnapReader, SnapWriter};

/// A value that can be written into and restored from a snapshot body.
///
/// `load` works in place: components are first built from the configuration
/// and then overlaid with the saved mutable state, so everything that is a
/// pure function of the configuration never enters the image.
pub trait Snap {
    /// A lower bound on the encoded size of any value of this type, in
    /// bytes. Dynamic containers bound their length prefix with it before
    /// allocating.
    const MIN_BYTES: usize;

    /// Appends this value's encoding to `w`.
    fn save(&self, w: &mut SnapWriter);

    /// Overwrites this value with the one encoded at the reader's cursor.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] when the body ends first,
    /// [`SnapError::BadValue`] for an encoding no `save` produces or a value
    /// the receiver's configuration rules out, and
    /// [`SnapError::SectionMismatch`] when a section marker is out of phase.
    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError>;
}

/// Decodes a fresh `T` (starting from `T::default()`).
///
/// # Errors
///
/// As for [`Snap::load`].
pub fn load_new<T: Snap + Default>(r: &mut SnapReader<'_>) -> Result<T, SnapError> {
    let mut value = T::default();
    value.load(r)?;
    Ok(value)
}

/// `T::MIN_BYTES` of the field a projection closure selects — how
/// [`snap_fields!`](crate::snap_fields) sums field sizes without being told
/// the field types.
#[doc(hidden)]
#[must_use]
pub const fn min_bytes_of<S, T: Snap + ?Sized>(_project: fn(&S) -> &T) -> usize {
    T::MIN_BYTES
}

macro_rules! snap_primitive {
    ($($ty:ty => $method:ident, $bytes:expr;)*) => {$(
        impl Snap for $ty {
            const MIN_BYTES: usize = $bytes;

            #[inline]
            fn save(&self, w: &mut SnapWriter) {
                w.$method(*self);
            }

            #[inline]
            fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
                *self = r.$method()?;
                Ok(())
            }
        }
    )*};
}

snap_primitive! {
    u8 => u8, 1;
    u32 => u32, 4;
    u64 => u64, 8;
    usize => usize, 8;
    bool => bool, 1;
    f64 => f64, 8;
}

impl Snap for String {
    const MIN_BYTES: usize = 8;

    fn save(&self, w: &mut SnapWriter) {
        w.str(self);
    }

    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        *self = r.str()?;
        Ok(())
    }
}

macro_rules! snap_tuple {
    ($($name:ident . $idx:tt),+) => {
        impl<$($name: Snap),+> Snap for ($($name,)+) {
            const MIN_BYTES: usize = 0 $(+ $name::MIN_BYTES)+;

            #[inline]
            fn save(&self, w: &mut SnapWriter) {
                $(self.$idx.save(w);)+
            }

            #[inline]
            fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
                $(self.$idx.load(r)?;)+
                Ok(())
            }
        }
    };
}

snap_tuple!(A.0, B.1);
snap_tuple!(A.0, B.1, C.2);
snap_tuple!(A.0, B.1, C.2, D.3);

impl<T: Snap + ?Sized> Snap for Box<T> {
    const MIN_BYTES: usize = T::MIN_BYTES;

    fn save(&self, w: &mut SnapWriter) {
        (**self).save(w);
    }

    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        (**self).load(r)
    }
}

/// Length prefix followed by the elements in iteration order.
fn save_seq<'a, T: Snap + 'a>(w: &mut SnapWriter, items: impl ExactSizeIterator<Item = &'a T>) {
    w.usize(items.len());
    for item in items {
        item.save(w);
    }
}

/// Reads a bounded length prefix, then hands each freshly decoded element to
/// `push` (which may reject it).
fn load_seq<T: Snap + Default>(
    r: &mut SnapReader<'_>,
    mut push: impl FnMut(T, &SnapReader<'_>) -> Result<(), SnapError>,
) -> Result<(), SnapError> {
    for _ in 0..r.bounded_len(T::MIN_BYTES)? {
        let item = load_new(r)?;
        push(item, r)?;
    }
    Ok(())
}

/// Fixed-shape sequence: loaded in place, the stored length must match.
impl<T: Snap> Snap for [T] {
    const MIN_BYTES: usize = 8;

    fn save(&self, w: &mut SnapWriter) {
        save_seq(w, self.iter());
    }

    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let stored = r.bounded_len(T::MIN_BYTES)?;
        if stored != self.len() {
            return Err(r.bad_value(format!(
                "{stored} elements stored, the configuration fixes {}",
                self.len()
            )));
        }
        self.iter_mut().try_for_each(|item| item.load(r))
    }
}

impl<T: Snap, const N: usize> Snap for [T; N] {
    const MIN_BYTES: usize = 8;

    fn save(&self, w: &mut SnapWriter) {
        self.as_slice().save(w);
    }

    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.as_mut_slice().load(r)
    }
}

impl<T: Snap + Default> Snap for Vec<T> {
    const MIN_BYTES: usize = 8;

    fn save(&self, w: &mut SnapWriter) {
        save_seq(w, self.iter());
    }

    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.clear();
        load_seq(r, |item, _| {
            self.push(item);
            Ok(())
        })
    }
}

impl<T: Snap + Default> Snap for VecDeque<T> {
    const MIN_BYTES: usize = 8;

    fn save(&self, w: &mut SnapWriter) {
        save_seq(w, self.iter());
    }

    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.clear();
        load_seq(r, |item, _| {
            self.push_back(item);
            Ok(())
        })
    }
}

impl<T: Snap + Default> Snap for Option<T> {
    const MIN_BYTES: usize = 1;

    fn save(&self, w: &mut SnapWriter) {
        match self {
            None => w.u8(0),
            Some(value) => {
                w.u8(1);
                value.save(w);
            }
        }
    }

    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        *self = match r.u8()? {
            0 => None,
            1 => Some(load_new(r)?),
            tag => return Err(r.bad_value(format!("option tag {tag}"))),
        };
        Ok(())
    }
}

/// Ordered sets and maps are written in key order; a load accepts only
/// strictly ascending keys, which also rules out duplicates.
impl<T: Snap + Default + Ord> Snap for BTreeSet<T> {
    const MIN_BYTES: usize = 8;

    fn save(&self, w: &mut SnapWriter) {
        save_seq(w, self.iter());
    }

    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.clear();
        load_seq(r, |item: T, r| {
            if self.last().is_some_and(|last| *last >= item) {
                return Err(r.bad_value("set keys not strictly ascending"));
            }
            self.insert(item);
            Ok(())
        })
    }
}

impl<K: Snap + Default + Ord, V: Snap + Default> Snap for BTreeMap<K, V> {
    const MIN_BYTES: usize = 8;

    fn save(&self, w: &mut SnapWriter) {
        w.usize(self.len());
        for (key, value) in self {
            key.save(w);
            value.save(w);
        }
    }

    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.clear();
        load_seq(r, |(key, value): (K, V), r| {
            if self.last_key_value().is_some_and(|(last, _)| *last >= key) {
                return Err(r.bad_value("map keys not strictly ascending"));
            }
            self.insert(key, value);
            Ok(())
        })
    }
}

/// Implements [`Snap`](crate::Snap) for a named-field struct from one list
/// of its fields.
///
/// Every field is named exactly once: under `saved` (in wire order) or under
/// `skipped` with the reason it is not part of the image. Both generated
/// bodies open with an exhaustive `let Self { .. } = self;` pattern *without*
/// a rest pattern, so a field that is in neither list — or in both, or
/// misspelt — does not compile. Invoke it in the module that defines the
/// struct (private fields are matched by name); the struct definition itself
/// stays as it is.
///
/// A saved field is written through its own [`Snap`](crate::Snap) impl.
/// Two markers change that:
///
/// - `name: fixed` — a `Vec` or `Option` whose shape the configuration
///   fixes: loaded in place through the `[T]` impl, so the stored length
///   must match the receiver's.
/// - `name: via(get, set)` — a foreign type exposing its state through a
///   getter/setter pair (`get(&F) -> V`, `set(&mut F, V)` with `V: Snap`).
///
/// Optional parts: `section: "name",` brackets the struct with a section
/// marker, and `after_load: path` names a
/// `fn(&mut Self, &SnapReader<'_>) -> Result<(), SnapError>` run once the
/// fields are in — the place for cross-field validation and for rebuilding
/// skipped fields that are derived from saved ones.
///
/// ```
/// use cloudmc_snap::{snap_fields, Snap, SnapReader, SnapWriter};
///
/// struct Counter {
///     ways: usize,
///     hits: Vec<u64>,
///     misses: u64,
/// }
///
/// snap_fields! {
///     Counter {
///         saved: { hits: fixed, misses },
///         skipped: { ways: "config-derived" },
///     }
/// }
///
/// let warm = Counter { ways: 2, hits: vec![3, 4], misses: 5 };
/// let mut w = SnapWriter::new(0);
/// warm.save(&mut w);
/// let image = w.finish();
///
/// let mut fresh = Counter { ways: 2, hits: vec![0, 0], misses: 0 };
/// let mut r = SnapReader::new(&image, 0).unwrap();
/// fresh.load(&mut r).unwrap();
/// r.finish().unwrap();
/// assert_eq!((fresh.hits, fresh.misses), (vec![3, 4], 5));
/// ```
///
/// Adding a field without listing it is a compile error (E0027; because
/// the pattern comes out of a macro, rustc words it "pattern requires `..`
/// due to inaccessible fields" and points at the invocation):
///
/// ```compile_fail,E0027
/// use cloudmc_snap::snap_fields;
///
/// struct Counter {
///     ways: usize,
///     hits: Vec<u64>,
///     misses: u64,
///     evictions: u64,
/// }
///
/// snap_fields! {
///     Counter {
///         saved: { hits: fixed, misses },
///         skipped: { ways: "config-derived" },
///     }
/// }
/// ```
#[macro_export]
macro_rules! snap_fields {
    (
        $ty:ty {
            $(section: $section:literal,)?
            saved: { $($field:ident $(: $mode:ident $(($($arg:tt)*))?)?),* $(,)? },
            skipped: { $($skip:ident : $why:literal),* $(,)? }
            $(, after_load: $after_load:expr)? $(,)?
        }
    ) => {
        impl $crate::Snap for $ty {
            const MIN_BYTES: usize =
                0 $(+ $crate::__snap_field!(min $field $($mode $(($($arg)*))?)?))*;

            fn save(&self, w: &mut $crate::SnapWriter) {
                let Self { $($field,)* $($skip: _,)* } = self;
                $(w.section($section);)?
                $($crate::__snap_field!(save w $field $($mode $(($($arg)*))?)?);)*
            }

            fn load(
                &mut self,
                r: &mut $crate::SnapReader<'_>,
            ) -> ::core::result::Result<(), $crate::SnapError> {
                let Self { $($field,)* $($skip: _,)* } = self;
                $(r.section($section)?;)?
                $($crate::__snap_field!(load r $field $($mode $(($($arg)*))?)?);)*
                $(($after_load)(self, r)?;)?
                Ok(())
            }
        }
    };
}

/// Per-field expansion of [`snap_fields!`] for each marker.
#[doc(hidden)]
#[macro_export]
macro_rules! __snap_field {
    (min $field:ident) => {
        $crate::min_bytes_of(|s: &Self| &s.$field)
    };
    (min $field:ident fixed) => {
        $crate::min_bytes_of(|s: &Self| s.$field.as_slice())
    };
    (min $field:ident via($get:expr, $set:expr)) => {
        0
    };
    (save $w:ident $field:ident) => {
        $crate::Snap::save($field, $w)
    };
    (save $w:ident $field:ident fixed) => {
        $crate::Snap::save($field.as_slice(), $w)
    };
    (save $w:ident $field:ident via($get:expr, $set:expr)) => {
        $crate::Snap::save(&$get($field), $w)
    };
    (load $r:ident $field:ident) => {
        $crate::Snap::load($field, $r)?
    };
    (load $r:ident $field:ident fixed) => {
        $crate::Snap::load($field.as_mut_slice(), $r)?
    };
    (load $r:ident $field:ident via($get:expr, $set:expr)) => {{
        let mut value = $get($field);
        $crate::Snap::load(&mut value, $r)?;
        $set($field, value);
    }};
}

/// Implements [`Snap`](crate::Snap) for a field-less enum as one
/// discriminant byte. The generated `save` matches exhaustively, so a new
/// variant without a byte does not compile; `load` rejects every byte not
/// listed.
///
/// ```
/// use cloudmc_snap::{snap_unit_enum, Snap};
///
/// #[derive(Debug, PartialEq)]
/// enum Direction {
///     Read,
///     Write,
/// }
///
/// snap_unit_enum!(Direction { Read = 0, Write = 1 });
/// assert_eq!(<Direction as Snap>::MIN_BYTES, 1);
/// ```
#[macro_export]
macro_rules! snap_unit_enum {
    ($ty:ty { $($variant:ident = $byte:literal),+ $(,)? }) => {
        impl $crate::Snap for $ty {
            const MIN_BYTES: usize = 1;

            fn save(&self, w: &mut $crate::SnapWriter) {
                w.u8(match self {
                    $(Self::$variant => $byte,)+
                });
            }

            fn load(
                &mut self,
                r: &mut $crate::SnapReader<'_>,
            ) -> ::core::result::Result<(), $crate::SnapError> {
                *self = match r.u8()? {
                    $($byte => Self::$variant,)+
                    other => {
                        return Err(r.bad_value(format!(
                            concat!(stringify!($ty), " discriminant {}"),
                            other
                        )))
                    }
                };
                Ok(())
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Saves `value`, loads the image into `into`, and demands the whole
    /// body was consumed.
    fn round_trip<T: Snap + ?Sized>(value: &T, into: &mut T) -> Result<(), SnapError> {
        let mut w = SnapWriter::new(7);
        value.save(&mut w);
        let image = w.finish();
        let mut r = SnapReader::new(&image, 7)?;
        into.load(&mut r)?;
        r.finish()
    }

    fn round_trips<T: Snap + Default + PartialEq + std::fmt::Debug>(value: T) {
        let mut out = T::default();
        round_trip(&value, &mut out).unwrap();
        assert_eq!(out, value);
    }

    /// An image whose body is exactly `body`.
    fn image_of(body: impl FnOnce(&mut SnapWriter)) -> Vec<u8> {
        let mut w = SnapWriter::new(7);
        body(&mut w);
        w.finish()
    }

    fn load_err<T: Snap + ?Sized>(image: &[u8], into: &mut T) -> SnapError {
        let mut r = SnapReader::new(image, 7).unwrap();
        into.load(&mut r).unwrap_err()
    }

    #[test]
    fn primitives_round_trip() {
        round_trips(0xABu8);
        round_trips(0xDEAD_BEEFu32);
        round_trips(u64::MAX - 1);
        round_trips(usize::MAX);
        round_trips(true);
        round_trips(-0.0f64);
        assert_eq!(f64::NAN.to_bits(), {
            let mut out = 0.0f64;
            round_trip(&f64::NAN, &mut out).unwrap();
            out.to_bits()
        });
    }

    #[test]
    fn string_round_trips_and_rejects_invalid_utf8() {
        round_trips("héllo".to_owned());
        let image = image_of(|w| {
            w.usize(1);
            w.u8(0xFF);
        });
        assert!(matches!(
            load_err(&image, &mut String::new()),
            SnapError::BadValue { .. }
        ));
    }

    #[test]
    fn tuples_and_box_round_trip() {
        round_trips((1u64, 2u32));
        round_trips((1usize, 2usize, 3u64));
        round_trips((1usize, 2usize, 3u64, true));
        round_trips(Box::new((9u64, false)));
        assert_eq!(<(u64, u32, bool)>::MIN_BYTES, 13);
    }

    #[test]
    fn option_round_trips_and_rejects_unknown_tags() {
        round_trips(Some(5u64));
        round_trips(None::<u64>);
        let image = image_of(|w| w.u8(2));
        assert!(matches!(
            load_err(&image, &mut None::<u64>),
            SnapError::BadValue { .. }
        ));
    }

    #[test]
    fn vec_and_deque_round_trip_replacing_old_contents() {
        let mut out = vec![9u64; 5];
        round_trip(&vec![1u64, 2, 3], &mut out).unwrap();
        assert_eq!(out, vec![1, 2, 3]);
        round_trips(VecDeque::from(vec![(1u64, 2u32), (3, 4)]));
        round_trips(vec![vec![1.5f64], vec![]]);
    }

    #[test]
    fn vec_length_bomb_is_rejected_before_allocating() {
        // A length no body could back: `bounded_len(T::MIN_BYTES)` refuses it
        // up front, whatever follows.
        let image = image_of(|w| {
            w.u64(u64::MAX / 16);
            w.u64(1);
        });
        assert!(matches!(
            load_err(&image, &mut Vec::<u64>::new()),
            SnapError::BadValue { .. }
        ));
        // A plausible length with too few bytes behind it truncates.
        let image = image_of(|w| {
            w.usize(2);
            w.u64(1);
            w.u32(0);
        });
        assert!(matches!(
            load_err(&image, &mut Vec::<u64>::new()),
            SnapError::BadValue { .. } | SnapError::Truncated { .. }
        ));
    }

    #[test]
    fn fixed_shapes_load_in_place_and_reject_a_length_mismatch() {
        let mut out = [0u64; 3];
        round_trip(&[4u64, 5, 6], &mut out).unwrap();
        assert_eq!(out, [4, 5, 6]);

        let mut slots = vec![0u32; 2];
        round_trip([7u32, 8].as_slice(), slots.as_mut_slice()).unwrap();
        assert_eq!(slots, vec![7, 8]);

        // Three stored elements cannot land in a two-element receiver.
        let image = image_of(|w| [1u32, 2, 3].as_slice().save(w));
        assert!(matches!(
            load_err(&image, slots.as_mut_slice()),
            SnapError::BadValue { .. }
        ));
        // `Option::as_mut_slice` gives presence-fixed-by-config the same rule.
        let image = image_of(|w| Some(1u64).as_slice().save(w));
        assert!(matches!(
            load_err(&image, None::<u64>.as_mut_slice()),
            SnapError::BadValue { .. }
        ));
    }

    #[test]
    fn ordered_containers_round_trip_and_reject_unsorted_keys() {
        round_trips(BTreeSet::from([(0usize, 1usize, 2u64), (0, 1, 3)]));
        round_trips(BTreeMap::from([(1u64, 10u32), (2, 20)]));
        let duplicate = image_of(|w| {
            w.usize(2);
            w.u64(5);
            w.u64(5);
        });
        assert!(matches!(
            load_err(&duplicate, &mut BTreeSet::<u64>::new()),
            SnapError::BadValue { .. }
        ));
        let descending = image_of(|w| {
            w.usize(2);
            (2u64, 0u32).save(w);
            (1u64, 0u32).save(w);
        });
        assert!(matches!(
            load_err(&descending, &mut BTreeMap::<u64, u32>::new()),
            SnapError::BadValue { .. }
        ));
    }

    #[derive(Debug, Default, PartialEq)]
    enum Mode {
        #[default]
        Idle,
        Busy,
    }

    crate::snap_unit_enum!(Mode { Idle = 0, Busy = 1 });

    /// Stand-in for a foreign type that only exposes its state by value.
    #[derive(Debug, PartialEq)]
    struct Opaque([u64; 2]);

    impl Opaque {
        fn state(&self) -> [u64; 2] {
            self.0
        }

        fn set_state(&mut self, state: [u64; 2]) {
            self.0 = state;
        }
    }

    #[derive(Debug, PartialEq)]
    struct Unit {
        capacity: usize,
        slots: Vec<u64>,
        mode: Mode,
        spare: Option<Box<u64>>,
        rng: Opaque,
        /// Sum of `slots`, rebuilt by `after_load`.
        total: u64,
    }

    impl Unit {
        fn reindex(&mut self, r: &SnapReader<'_>) -> Result<(), SnapError> {
            if self.slots.iter().any(|&s| s > 100) {
                return Err(r.bad_value("slot above 100"));
            }
            self.total = self.slots.iter().sum();
            Ok(())
        }
    }

    crate::snap_fields! {
        Unit {
            section: "unit",
            saved: {
                slots: fixed,
                mode,
                spare: fixed,
                rng: via(Opaque::state, Opaque::set_state),
            },
            skipped: {
                capacity: "config-derived",
                total: "derived from slots by reindex",
            },
            after_load: Self::reindex,
        }
    }

    fn unit(slots: Vec<u64>, mode: Mode, spare: Option<u64>, rng: [u64; 2]) -> Unit {
        Unit {
            capacity: 4,
            total: slots.iter().sum(),
            slots,
            mode,
            spare: spare.map(Box::new),
            rng: Opaque(rng),
        }
    }

    #[test]
    fn snap_fields_round_trips_every_marker_and_runs_after_load() {
        let warm = unit(vec![1, 2, 3], Mode::Busy, Some(8), [11, 12]);
        let mut fresh = unit(vec![0, 0, 0], Mode::Idle, Some(0), [0, 0]);
        round_trip(&warm, &mut fresh).unwrap();
        assert_eq!(fresh, warm);
        // Two slice prefixes and the mode byte; a `via` field counts 0.
        assert_eq!(Unit::MIN_BYTES, 8 + 1 + 8);
    }

    #[test]
    fn snap_fields_rejects_shape_mismatch_bad_values_and_a_wrong_section() {
        let warm = unit(vec![1, 2, 3], Mode::Busy, Some(8), [11, 12]);
        let image = image_of(|w| warm.save(w));
        // A receiver configured with two slots, or without the spare.
        let mut two = unit(vec![0, 0], Mode::Idle, Some(0), [0, 0]);
        assert!(matches!(
            load_err(&image, &mut two),
            SnapError::BadValue { .. }
        ));
        let mut no_spare = unit(vec![0, 0, 0], Mode::Idle, None, [0, 0]);
        assert!(matches!(
            load_err(&image, &mut no_spare),
            SnapError::BadValue { .. }
        ));
        // `after_load` vetoes a value the fields alone accept.
        let mut fresh = unit(vec![0, 0, 0], Mode::Idle, Some(0), [0, 0]);
        let hot = image_of(|w| unit(vec![1, 2, 300], Mode::Busy, Some(8), [0, 0]).save(w));
        assert!(matches!(
            load_err(&hot, &mut fresh),
            SnapError::BadValue { .. }
        ));
        // An unknown discriminant byte.
        let mut mode = Mode::Idle;
        assert!(matches!(
            load_err(&image_of(|w| w.u8(2)), &mut mode),
            SnapError::BadValue { .. }
        ));
        // Out of phase: the body starts with a different section.
        let other = image_of(|w| w.section("other"));
        assert!(matches!(
            load_err(&other, &mut fresh),
            SnapError::SectionMismatch { .. }
        ));
    }
}
