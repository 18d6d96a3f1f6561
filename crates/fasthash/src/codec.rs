//! Little-endian binary codec for checkpoints and run-cache payloads.
//!
//! This module is the one description of the simulator's wire format.
//! Every stateful type — cores, LLC, DRAM banks, ranks and channels, the
//! HCRAC and mechanisms, controllers, trackers and the system itself —
//! goes into a checkpoint through the [`State`] trait, and so does a
//! finished run's result (`sim::RunResult`, the payload of a `.run`
//! cache entry), so the framing decisions below are made here and
//! nowhere else.
//!
//! # Conventions
//!
//! * **Primitives.** Fixed-width little-endian integers; `usize` as
//!   `u64`; floats as their IEEE-754 bit pattern ([`f64::to_bits`]);
//!   `bool` as one byte (0 or 1); strings as a length-prefixed UTF-8
//!   byte run.
//! * **Structs** are the concatenation of their fields in a fixed order,
//!   with no tags or padding. [`impl_state!`](crate::impl_state) writes
//!   that impl for a plain list of fields.
//! * **Enums** are a one-byte tag followed by the variant's fields;
//!   [`take_tag`] rejects unknown tags. `Option` is tag 0 (`None`) or 1
//!   followed by the value.
//! * **Prefixed containers.** `Vec` and `VecDeque` carry a `usize`
//!   element count, then the elements. A container whose length is fixed
//!   by the configuration (banks per rank, bank-group gates, refresh
//!   schedules) uses the same layout ([`put_slice`]) but is restored in
//!   place with [`load_slice`], which rejects a count that differs from
//!   the receiving geometry.
//! * **Sparse containers.** The two geometry-sized tables whose untouched
//!   entries are known write only what the run has touched, so a
//!   checkpoint scales with live state, not with the configuration:
//!   - *LLC lines* (`cpu::Llc`): the line count (a geometry check), the
//!     count of non-empty sets, then each non-empty set in ascending
//!     order as a `u32` set index, its valid-way count `n` and those
//!     ways' `(line number, dirty, recency rank)`. Lines never become
//!     invalid and allocation takes the first invalid way, so a set's
//!     valid lines are a prefix of its ways, ranked `0..n`; every way
//!     not written is empty, with the rank its position implies.
//!   - *Refresh bins* (`dram::RefreshState`): the visit position, due
//!     time and REF count, then `min(issued, bins)` and those bins'
//!     times in visit order. Only a REF writes a bin's time, in visit
//!     order from position 0, so every other bin still has its
//!     constructor age, which the decoder recomputes.
//!
//!   Decoders overwrite every entry of the receiver and reject an index
//!   out of range or order, an empty or over-full set, a set's ranks
//!   that are not a permutation of `0..n`, and a count or position that
//!   disagrees with the REF count.
//! * **Fixed containers.** Arrays (`[T; N]`) carry no prefix.
//! * **Hash maps** are written as a prefixed sequence of `(key, value)`
//!   pairs sorted by key ([`put_sorted_map`], [`load_map`]), so equal
//!   state always yields equal bytes regardless of iteration order.
//! * **Plausibility caps.** Every decoded count is checked by
//!   [`take_len`] against the bytes left, using the element type's
//!   [`State::MIN_BYTES`]: a corrupt count fails the decode instead of
//!   triggering a huge allocation.
//!
//! Readers take a `&mut &[u8]` cursor and return `Err` with a short
//! description instead of panicking, so a truncated or corrupt
//! checkpoint degrades to a clean restart, and a corrupt cache entry to
//! a re-simulation, rather than aborting the run.
//!
//! Like [`crate::content_hash_128`], this is a frozen wire format:
//! checkpoints and cache entries written by one build must be readable
//! by the next, or be cleanly rejected by their version header
//! (`sim::ckpt::CKPT_VERSION` or `sim::cache::ENTRY_VERSION` must bump
//! with any layout change of what they carry).

use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasher, Hash};

/// Decode error: what was being read when the input ran out or a tag was
/// invalid.
pub type CodecError = String;

/// Result alias for the `take_*` readers.
pub type CodecResult<T> = Result<T, CodecError>;

/// Appends one byte.
#[inline]
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Appends a `u32` little-endian.
#[inline]
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u64` little-endian.
#[inline]
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `i64` little-endian.
#[inline]
pub fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `usize` as `u64` little-endian.
#[inline]
pub fn put_usize(out: &mut Vec<u8>, v: usize) {
    put_u64(out, v as u64);
}

/// Appends an `f64` as its IEEE-754 bit pattern (bit-exact round trip).
#[inline]
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// Appends a boolean as one byte (0 or 1).
#[inline]
pub fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(u8::from(v));
}

/// Appends a length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_usize(out, s.len());
    out.extend_from_slice(s.as_bytes());
}

fn short(what: &str) -> CodecError {
    format!("input truncated reading {what}")
}

/// Reads `n` raw bytes, advancing the cursor.
pub fn take_bytes<'a>(input: &mut &'a [u8], n: usize, what: &str) -> CodecResult<&'a [u8]> {
    if input.len() < n {
        return Err(short(what));
    }
    let (head, rest) = input.split_at(n);
    *input = rest;
    Ok(head)
}

/// Reads one byte.
pub fn take_u8(input: &mut &[u8], what: &str) -> CodecResult<u8> {
    Ok(take_bytes(input, 1, what)?[0])
}

/// Reads a little-endian `u32`.
pub fn take_u32(input: &mut &[u8], what: &str) -> CodecResult<u32> {
    let b = take_bytes(input, 4, what)?;
    Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
}

/// Reads a little-endian `u64`.
pub fn take_u64(input: &mut &[u8], what: &str) -> CodecResult<u64> {
    let b = take_bytes(input, 8, what)?;
    Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
}

/// Reads a little-endian `i64`.
pub fn take_i64(input: &mut &[u8], what: &str) -> CodecResult<i64> {
    let b = take_bytes(input, 8, what)?;
    Ok(i64::from_le_bytes(b.try_into().expect("8 bytes")))
}

/// Reads a `u64` and converts it to `usize`, rejecting values that do not
/// fit (cannot happen for checkpoints written on the same platform, but a
/// corrupt length must not panic the decoder).
pub fn take_usize(input: &mut &[u8], what: &str) -> CodecResult<usize> {
    let v = take_u64(input, what)?;
    usize::try_from(v).map_err(|_| format!("length overflow reading {what}"))
}

/// Reads an `f64` from its bit pattern.
pub fn take_f64(input: &mut &[u8], what: &str) -> CodecResult<f64> {
    Ok(f64::from_bits(take_u64(input, what)?))
}

/// Reads a boolean, rejecting bytes other than 0 or 1.
pub fn take_bool(input: &mut &[u8], what: &str) -> CodecResult<bool> {
    match take_u8(input, what)? {
        0 => Ok(false),
        1 => Ok(true),
        b => Err(format!("invalid bool byte {b} reading {what}")),
    }
}

/// Reads a length-prefixed UTF-8 string.
pub fn take_str(input: &mut &[u8], what: &str) -> CodecResult<String> {
    let len = take_usize(input, what)?;
    if len > input.len() {
        return Err(short(what));
    }
    let b = take_bytes(input, len, what)?;
    String::from_utf8(b.to_vec()).map_err(|_| format!("invalid UTF-8 reading {what}"))
}

/// Reads a sequence length and sanity-checks it against the bytes left:
/// each element needs at least `min_elem_bytes`, so a corrupt length
/// cannot trigger a huge allocation before the decode fails anyway.
pub fn take_len(input: &mut &[u8], min_elem_bytes: usize, what: &str) -> CodecResult<usize> {
    let len = take_usize(input, what)?;
    if min_elem_bytes > 0 && len > input.len() / min_elem_bytes {
        return Err(format!("implausible length {len} reading {what}"));
    }
    Ok(len)
}

/// Reads a one-byte enum tag, rejecting values above `max`.
pub fn take_tag(input: &mut &[u8], max: u8, what: &str) -> CodecResult<u8> {
    match take_u8(input, what)? {
        t if t <= max => Ok(t),
        t => Err(format!("invalid {what} tag {t}")),
    }
}

/// Checkpoint state of one value: its encoding ([`State::put`]) and an
/// in-place decoder ([`State::load`]) that overwrites `self` with the
/// decoded value. Types whose shape comes from the configuration (bank
/// counts, cache geometry, mechanism parameters) are built from that
/// configuration first and then loaded, so only mutable state travels.
pub trait State {
    /// A lower bound on the encoded size in bytes. Sequence decoders cap
    /// a decoded element count at `bytes left / MIN_BYTES`, so it must
    /// never exceed the size of a real encoding. The default, one byte,
    /// holds for every type that writes anything.
    const MIN_BYTES: usize = 1;

    /// Appends the encoding of `self`.
    fn put(&self, out: &mut Vec<u8>);

    /// Overwrites `self` with a value decoded from the front of `input`.
    ///
    /// # Errors
    ///
    /// Returns a description of the truncation or invalid encoding; on
    /// error `self` may be partially overwritten.
    fn load(&mut self, input: &mut &[u8]) -> CodecResult<()>;

    /// Decodes a new value, starting from `Self::default()`.
    ///
    /// # Errors
    ///
    /// As [`State::load`].
    fn take(input: &mut &[u8]) -> CodecResult<Self>
    where
        Self: Default + Sized,
    {
        let mut v = Self::default();
        v.load(input)?;
        Ok(v)
    }
}

/// [`State::MIN_BYTES`] of the type a field projection returns; lets
/// [`impl_state!`](crate::impl_state) sum its fields' minimum sizes.
#[doc(hidden)]
pub const fn field_min_bytes<S, T: State>(_: fn(&S) -> &T) -> usize {
    T::MIN_BYTES
}

/// Implements [`State`] for a struct as the plain sequence of the listed
/// fields, in order. Its minimum size is the sum of theirs.
///
/// ```
/// struct Counters {
///     hits: u64,
///     misses: u64,
/// }
/// fasthash::impl_state!(Counters { hits, misses });
///
/// use fasthash::codec::State;
/// let mut out = Vec::new();
/// Counters { hits: 3, misses: 4 }.put(&mut out);
/// assert_eq!(out.len(), <Counters as State>::MIN_BYTES);
/// ```
#[macro_export]
macro_rules! impl_state {
    ($ty:ty { $($field:tt),+ $(,)? }) => {
        impl $crate::codec::State for $ty {
            const MIN_BYTES: usize =
                0 $(+ $crate::codec::field_min_bytes(|s: &$ty| &s.$field))+;

            #[inline]
            fn put(&self, out: &mut Vec<u8>) {
                $($crate::codec::State::put(&self.$field, out);)+
            }

            #[inline]
            fn load(&mut self, input: &mut &[u8]) -> $crate::codec::CodecResult<()> {
                $($crate::codec::State::load(&mut self.$field, input)?;)+
                Ok(())
            }
        }
    };
}

macro_rules! int_state {
    ($($t:ty => $put:ident, $take:ident, $bytes:expr;)+) => {$(
        impl State for $t {
            const MIN_BYTES: usize = $bytes;

            #[inline]
            fn put(&self, out: &mut Vec<u8>) {
                $put(out, *self);
            }

            #[inline]
            fn load(&mut self, input: &mut &[u8]) -> CodecResult<()> {
                *self = $take(input, stringify!($t))?;
                Ok(())
            }
        }
    )+};
}

int_state! {
    u8 => put_u8, take_u8, 1;
    u32 => put_u32, take_u32, 4;
    u64 => put_u64, take_u64, 8;
    i64 => put_i64, take_i64, 8;
    usize => put_usize, take_usize, 8;
    f64 => put_f64, take_f64, 8;
    bool => put_bool, take_bool, 1;
}

impl State for String {
    const MIN_BYTES: usize = 8;

    fn put(&self, out: &mut Vec<u8>) {
        put_str(out, self);
    }

    fn load(&mut self, input: &mut &[u8]) -> CodecResult<()> {
        *self = take_str(input, "string")?;
        Ok(())
    }
}

impl<A: State, B: State> State for (A, B) {
    const MIN_BYTES: usize = A::MIN_BYTES + B::MIN_BYTES;

    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
    }

    #[inline]
    fn load(&mut self, input: &mut &[u8]) -> CodecResult<()> {
        self.0.load(input)?;
        self.1.load(input)
    }
}

impl<T: State, const N: usize> State for [T; N] {
    const MIN_BYTES: usize = N * T::MIN_BYTES;

    fn put(&self, out: &mut Vec<u8>) {
        for v in self {
            v.put(out);
        }
    }

    fn load(&mut self, input: &mut &[u8]) -> CodecResult<()> {
        self.iter_mut().try_for_each(|v| v.load(input))
    }
}

impl<T: State + Default> State for Option<T> {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            None => put_u8(out, 0),
            Some(v) => {
                put_u8(out, 1);
                v.put(out);
            }
        }
    }

    fn load(&mut self, input: &mut &[u8]) -> CodecResult<()> {
        *self = match take_tag(input, 1, "option")? {
            0 => None,
            _ => Some(T::take(input)?),
        };
        Ok(())
    }
}

impl<T: State + Default> State for Vec<T> {
    const MIN_BYTES: usize = 8;

    fn put(&self, out: &mut Vec<u8>) {
        put_slice(out, self);
    }

    fn load(&mut self, input: &mut &[u8]) -> CodecResult<()> {
        let n = take_len(input, T::MIN_BYTES, "sequence")?;
        self.clear();
        self.reserve(n);
        for _ in 0..n {
            self.push(T::take(input)?);
        }
        Ok(())
    }
}

impl<T: State + Default> State for VecDeque<T> {
    const MIN_BYTES: usize = 8;

    fn put(&self, out: &mut Vec<u8>) {
        put_usize(out, self.len());
        for v in self {
            v.put(out);
        }
    }

    fn load(&mut self, input: &mut &[u8]) -> CodecResult<()> {
        let n = take_len(input, T::MIN_BYTES, "sequence")?;
        self.clear();
        self.reserve(n);
        for _ in 0..n {
            self.push_back(T::take(input)?);
        }
        Ok(())
    }
}

/// Writes a configuration-sized sequence: a `usize` count, then the
/// elements (the `Vec` layout). Restore it with [`load_slice`].
pub fn put_slice<T: State>(out: &mut Vec<u8>, items: &[T]) {
    put_usize(out, items.len());
    for v in items {
        v.put(out);
    }
}

/// Restores a sequence written by [`put_slice`] in place: the decoded count must equal `items.len()`, otherwise the
/// error is `mismatch(decoded, expected)`.
///
/// # Errors
///
/// Returns the mismatch description or any element's decode error.
pub fn load_slice<T: State>(
    input: &mut &[u8],
    items: &mut [T],
    mismatch: impl FnOnce(usize, usize) -> String,
) -> CodecResult<()> {
    let n = take_len(input, T::MIN_BYTES, "sequence")?;
    if n != items.len() {
        return Err(mismatch(n, items.len()));
    }
    items.iter_mut().try_for_each(|v| v.load(input))
}

/// Writes a hash map as a prefixed sequence of `(key, value)` pairs in
/// ascending key order.
pub fn put_sorted_map<K: State + Ord, V: State, S>(out: &mut Vec<u8>, map: &HashMap<K, V, S>) {
    let mut items: Vec<(&K, &V)> = map.iter().collect();
    items.sort_unstable_by(|a, b| a.0.cmp(b.0));
    put_usize(out, items.len());
    for (k, v) in items {
        k.put(out);
        v.put(out);
    }
}

/// Replaces the contents of `map` with pairs written by
/// [`put_sorted_map`].
///
/// # Errors
///
/// Returns a description of the truncation or invalid encoding.
pub fn load_map<K, V, S>(input: &mut &[u8], map: &mut HashMap<K, V, S>) -> CodecResult<()>
where
    K: State + Default + Eq + Hash,
    V: State + Default,
    S: BuildHasher,
{
    let n = take_len(input, K::MIN_BYTES + V::MIN_BYTES, "map")?;
    map.clear();
    for _ in 0..n {
        let k = K::take(input)?;
        map.insert(k, V::take(input)?);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_primitives() {
        let mut out = Vec::new();
        put_u8(&mut out, 7);
        put_u32(&mut out, 0xDEAD_BEEF);
        put_u64(&mut out, u64::MAX - 1);
        put_i64(&mut out, -42);
        put_f64(&mut out, -0.0);
        put_bool(&mut out, true);
        put_str(&mut out, "hello");
        let mut cur = out.as_slice();
        assert_eq!(take_u8(&mut cur, "a").unwrap(), 7);
        assert_eq!(take_u32(&mut cur, "b").unwrap(), 0xDEAD_BEEF);
        assert_eq!(take_u64(&mut cur, "c").unwrap(), u64::MAX - 1);
        assert_eq!(take_i64(&mut cur, "d").unwrap(), -42);
        assert_eq!(
            take_f64(&mut cur, "e").unwrap().to_bits(),
            (-0.0f64).to_bits()
        );
        assert!(take_bool(&mut cur, "f").unwrap());
        assert_eq!(take_str(&mut cur, "g").unwrap(), "hello");
        assert!(cur.is_empty());
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut out = Vec::new();
        put_u64(&mut out, 99);
        let mut cur = &out[..5];
        let err = take_u64(&mut cur, "field").unwrap_err();
        assert!(err.contains("truncated"), "{err}");
    }

    #[test]
    fn invalid_bool_rejected() {
        let mut cur: &[u8] = &[2];
        assert!(take_bool(&mut cur, "flag").is_err());
    }

    #[test]
    fn implausible_length_rejected() {
        let mut out = Vec::new();
        put_usize(&mut out, 1 << 40);
        let mut cur = out.as_slice();
        assert!(take_len(&mut cur, 8, "vec").is_err());
    }

    #[test]
    fn nan_roundtrips_bit_exact() {
        let weird = f64::from_bits(0x7FF8_0000_0000_1234);
        let mut out = Vec::new();
        put_f64(&mut out, weird);
        let mut cur = out.as_slice();
        assert_eq!(take_f64(&mut cur, "x").unwrap().to_bits(), weird.to_bits());
    }

    #[test]
    fn containers_use_the_documented_framing() {
        let mut out = Vec::new();
        (Some(7u8), vec![1u32, 2]).put(&mut out);
        [true, false].put(&mut out);
        let mut expect = vec![1, 7];
        expect.extend_from_slice(&2u64.to_le_bytes());
        expect.extend_from_slice(&[1, 0, 0, 0, 2, 0, 0, 0]);
        expect.extend_from_slice(&[1, 0]);
        assert_eq!(out, expect);
        let mut cur = out.as_slice();
        let mut back = (None::<u8>, Vec::<u32>::new());
        back.load(&mut cur).unwrap();
        assert_eq!(back, (Some(7), vec![1, 2]));
        let mut flags = [false; 2];
        flags.load(&mut cur).unwrap();
        assert_eq!(flags, [true, false]);
        assert!(cur.is_empty());
    }

    #[test]
    fn maps_are_written_sorted_and_slices_check_their_geometry() {
        let map: HashMap<u64, u8> = [(9, 1), (2, 3), (5, 2)].into_iter().collect();
        let mut out = Vec::new();
        put_sorted_map(&mut out, &map);
        let mut as_pairs = Vec::<(u64, u8)>::new();
        as_pairs.load(&mut out.as_slice()).unwrap();
        assert_eq!(as_pairs, [(2, 3), (5, 2), (9, 1)]);
        let mut back = HashMap::new();
        load_map(&mut out.as_slice(), &mut back).unwrap();
        assert_eq!(back, map);

        let mut out = Vec::new();
        vec![1u64, 2, 3].put(&mut out);
        let mut three = [0u64; 3];
        load_slice(&mut out.as_slice(), &mut three, |_, _| unreachable!()).unwrap();
        assert_eq!(three, [1, 2, 3]);
        let err = load_slice(&mut out.as_slice(), &mut [0u64; 2], |n, have| {
            format!("{n} vs {have}")
        });
        assert_eq!(err.unwrap_err(), "3 vs 2");
    }

    #[test]
    fn corrupt_counts_and_tags_are_rejected() {
        let mut out = Vec::new();
        put_usize(&mut out, 1 << 40);
        assert!(Vec::<u64>::new().load(&mut out.as_slice()).is_err());
        let mut cur: &[u8] = &[2];
        assert!(None::<u8>.load(&mut cur).is_err());
        let mut cur: &[u8] = &[3];
        assert_eq!(
            take_tag(&mut cur, 2, "kind").unwrap_err(),
            "invalid kind tag 3"
        );
    }
}
