//! The [`Counter`] trait: what a block of monotone statistics counters can
//! do besides enter a snapshot — be summed across channels and be read as a
//! measurement window — implemented here once for the leaf shapes, and for
//! counter structs by [`counter_fields!`](crate::counter_fields) from the
//! same field list that declares their snapshot image.

/// A monotone counter, or a block of them.
pub trait Counter {
    /// Accumulates `other` into `self` (aggregation across channels).
    fn merge(&mut self, other: &Self);

    /// `self` since `baseline`: the counts accumulated over a window whose
    /// beginning was observed as `baseline`.
    #[must_use]
    fn delta(&self, baseline: &Self) -> Self;
}

impl Counter for u64 {
    #[inline]
    fn merge(&mut self, other: &Self) {
        *self += *other;
    }

    #[inline]
    fn delta(&self, baseline: &Self) -> Self {
        *self - *baseline
    }
}

impl<T: Counter, const N: usize> Counter for [T; N] {
    fn merge(&mut self, other: &Self) {
        for (mine, theirs) in self.iter_mut().zip(other) {
            mine.merge(theirs);
        }
    }

    fn delta(&self, baseline: &Self) -> Self {
        std::array::from_fn(|i| self[i].delta(&baseline[i]))
    }
}

/// A shorter side counts as zero-padded: `merge` grows `self` to the longer
/// length, `delta` reads a baseline entry that does not exist yet as zero.
impl<T: Counter + Default> Counter for Vec<T> {
    fn merge(&mut self, other: &Self) {
        if self.len() < other.len() {
            self.resize_with(other.len(), T::default);
        }
        for (mine, theirs) in self.iter_mut().zip(other) {
            mine.merge(theirs);
        }
    }

    fn delta(&self, baseline: &Self) -> Self {
        let zero = T::default();
        self.iter()
            .enumerate()
            .map(|(i, mine)| mine.delta(baseline.get(i).unwrap_or(&zero)))
            .collect()
    }
}

/// Declares a struct of [`Counter`] fields once: implements
/// [`Snap`](crate::Snap) (every field saved, in the listed order — the list
/// is [`snap_fields!`](crate::snap_fields)' `saved` list, `fixed` marker
/// included), [`Counter`], and the public inherent `merge` / `delta` that
/// forward to it.
///
/// All three destructure `Self` without a rest pattern, so a field added to
/// the struct does not compile until it is in the list — and is then
/// snapshotted, merged and subtracted.
///
/// ```
/// use cloudmc_snap::counter_fields;
///
/// #[derive(Debug, Default, PartialEq)]
/// struct Traffic {
///     reads: u64,
///     per_bank: Vec<u64>,
/// }
///
/// counter_fields!(Traffic { reads, per_bank: fixed });
///
/// let start = Traffic { reads: 2, per_bank: vec![1, 1] };
/// let mut end = Traffic { reads: 2, per_bank: vec![1, 1] };
/// end.merge(&Traffic { reads: 5, per_bank: vec![0, 3] });
/// assert_eq!(end.delta(&start), Traffic { reads: 5, per_bank: vec![0, 3] });
/// ```
///
/// ```compile_fail,E0027
/// use cloudmc_snap::counter_fields;
///
/// struct Traffic {
///     reads: u64,
///     writes: u64,
/// }
///
/// counter_fields!(Traffic { reads });
/// ```
#[macro_export]
macro_rules! counter_fields {
    ($ty:ty { $($field:ident $(: $mode:ident)?),* $(,)? }) => {
        $crate::snap_fields! {
            $ty {
                saved: { $($field $(: $mode)?),* },
                skipped: {},
            }
        }

        impl $crate::Counter for $ty {
            fn merge(&mut self, other: &Self) {
                let Self { $($field,)* } = self;
                $($crate::Counter::merge($field, &other.$field);)*
            }

            fn delta(&self, baseline: &Self) -> Self {
                let Self { $($field,)* } = self;
                Self { $($field: $crate::Counter::delta($field, &baseline.$field),)* }
            }
        }

        impl $ty {
            /// Adds every counter of `other` into `self` (aggregation across
            /// channels).
            pub fn merge(&mut self, other: &Self) {
                $crate::Counter::merge(self, other);
            }

            /// Field-wise `self - baseline`: the counters accumulated over a
            /// measurement window whose beginning was observed as `baseline`.
            ///
            /// # Panics
            ///
            /// Panics in debug builds if a plain counter of `baseline`
            /// exceeds the corresponding counter of `self` (counters are
            /// monotone).
            #[must_use]
            pub fn delta(&self, baseline: &Self) -> Self {
                $crate::Counter::delta(self, baseline)
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaves_add_and_subtract_elementwise() {
        let mut n = 3u64;
        n.merge(&4);
        assert_eq!((n, n.delta(&3)), (7, 4));

        let mut pair = [1u64, 2];
        pair.merge(&[10, 20]);
        assert_eq!((pair, pair.delta(&[1, 2])), ([11, 22], [10, 20]));
    }

    #[test]
    fn vec_pads_the_shorter_side_with_zeros() {
        let mut v = vec![1u64];
        v.merge(&vec![1, 5, 9]);
        assert_eq!(v, vec![2, 5, 9]);
        v.merge(&vec![1]);
        assert_eq!(v, vec![3, 5, 9]);
        assert_eq!(v.delta(&vec![3]), vec![0, 5, 9]);
        assert_eq!(v.delta(&Vec::new()), v);
    }
}
