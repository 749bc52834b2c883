//! The checkpoint encoding and the [`Persist`] trait every persisted type
//! implements beside its own definition.
//!
//! A persisted field is written in exactly one [`Persist::save`] and read
//! in exactly one [`Persist::load`], in the crate that owns the type — so
//! the impl can reach private fields and no mirror struct is needed.
//!
//! The wire form: integers as LEB128 varints, floats as their IEEE bit
//! patterns (8 bytes, little-endian), booleans, enum tags and `Option`
//! tags as one raw byte, strings and collections length-prefixed.
//! Decoding never panics: every malformed input is a [`DecodeError`], and
//! collection lengths are bounded by the bytes left, so a crafted length
//! cannot trigger a huge allocation.

use crate::time::SimTime;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;

/// Why a checkpoint payload does not decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(pub String);

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for DecodeError {}

/// A decode result.
pub type Res<T> = Result<T, DecodeError>;

/// A [`DecodeError`] carrying `msg`.
pub fn bad(msg: impl Into<String>) -> DecodeError {
    DecodeError(msg.into())
}

/// A type that saves itself into a checkpoint and loads back exactly.
pub trait Persist: Sized {
    /// What a load needs besides the bytes: `()` for plain data, or the
    /// configuration the bytes deliberately leave out — for a machine,
    /// the machine freshly built from the scenario, whose registers the
    /// load then overwrites.
    type Ctx;

    /// Appends `self` to `e`.
    fn save(&self, e: &mut Enc);

    /// Reads back what [`save`](Self::save) wrote.
    fn load(d: &mut Dec<'_>, ctx: Self::Ctx) -> Res<Self>;
}

/// The encoder: an append-only byte buffer.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// An empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends any persisted value.
    pub fn put<T: Persist>(&mut self, v: &T) {
        v.save(self);
    }

    /// One raw byte (enum and option tags).
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// A boolean as one raw byte.
    #[inline]
    pub fn boolean(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// A LEB128 varint.
    #[inline]
    pub fn u64(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }

    /// A LEB128 varint up to 128 bits.
    #[inline]
    pub fn u128(&mut self, mut v: u128) {
        while v >= 0x80 {
            self.buf.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }

    /// A float as its bit pattern.
    #[inline]
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// A length-prefixed UTF-8 string.
    #[inline]
    pub fn str(&mut self, s: &str) {
        self.count(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// A collection length.
    #[inline]
    pub fn count(&mut self, n: usize) {
        self.u64(n as u64);
    }

    /// A length-prefixed sequence.
    pub fn seq<'a, T: Persist + 'a>(&mut self, items: impl ExactSizeIterator<Item = &'a T>) {
        self.count(items.len());
        for x in items {
            x.save(self);
        }
    }

    /// An option: a tag byte, then the value when present.
    pub fn opt<T: Persist>(&mut self, v: Option<&T>) {
        match v {
            None => self.u8(0),
            Some(x) => {
                self.u8(1);
                x.save(self);
            }
        }
    }
}

/// The decoder: a cursor over a payload.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
    id_bound: u64,
    now: SimTime,
}

impl<'a> Dec<'a> {
    /// A decoder at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Dec {
            buf,
            pos: 0,
            id_bound: u32::MAX as u64 + 1,
            now: SimTime::MAX,
        }
    }

    /// Sets the instant the payload was captured at, which bounds every
    /// [`past`](Self::past) read from here on.
    pub fn set_now(&mut self, now: SimTime) {
        self.now = now;
    }

    /// An instant no later than the capture instant: a register that
    /// records when something began.
    #[inline]
    pub fn past(&mut self) -> Res<SimTime> {
        let t: SimTime = self.get()?;
        if t > self.now {
            return Err(bad(format!("{t} is after the pause at {}", self.now)));
        }
        Ok(t)
    }

    /// Bounds every [`id`](Self::id) read from here on to `0..n`: the
    /// size of the dense table (such as the node set) the ids index.
    pub fn bound_ids(&mut self, n: usize) {
        self.id_bound = n as u64;
    }

    /// A dense 0-based id, below the bound set by
    /// [`bound_ids`](Self::bound_ids); `what` names it in the error.
    #[inline]
    pub fn id(&mut self, what: &str) -> Res<u32> {
        let v = self.u64()?;
        if v >= self.id_bound {
            return Err(bad(format!(
                "{what} {v} out of range for {}",
                self.id_bound
            )));
        }
        Ok(v as u32)
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Reads any plain persisted value.
    pub fn get<T: Persist<Ctx = ()>>(&mut self) -> Res<T> {
        T::load(self, ())
    }

    /// One raw byte.
    #[inline]
    pub fn u8(&mut self) -> Res<u8> {
        let b = *self
            .buf
            .get(self.pos)
            .ok_or_else(|| bad("unexpected end of payload"))?;
        self.pos += 1;
        Ok(b)
    }

    /// A boolean byte (0 or 1).
    #[inline]
    pub fn boolean(&mut self) -> Res<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(bad(format!("invalid bool byte {b}"))),
        }
    }

    /// A LEB128 varint of at most 64 bits.
    #[inline]
    pub fn u64(&mut self) -> Res<u64> {
        let mut v: u64 = 0;
        for shift in (0..64).step_by(7) {
            let b = self.u8()?;
            v |= ((b & 0x7f) as u64) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(bad("varint longer than 64 bits"))
    }

    /// A LEB128 varint of at most 128 bits.
    #[inline]
    pub fn u128(&mut self) -> Res<u128> {
        let mut v: u128 = 0;
        for shift in (0..128).step_by(7) {
            let b = self.u8()?;
            v |= ((b & 0x7f) as u128) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(bad("varint longer than 128 bits"))
    }

    /// A float from its bit pattern.
    #[inline]
    pub fn f64(&mut self) -> Res<f64> {
        let bytes = self
            .buf
            .get(self.pos..self.pos + 8)
            .ok_or_else(|| bad("unexpected end of payload in f64"))?;
        self.pos += 8;
        Ok(f64::from_bits(u64::from_le_bytes(
            bytes.try_into().expect("8 bytes"),
        )))
    }

    /// A length-prefixed UTF-8 string.
    #[inline]
    pub fn str(&mut self) -> Res<String> {
        let n = self.count()?;
        let s = std::str::from_utf8(&self.buf[self.pos..self.pos + n])
            .map_err(|_| bad("string is not UTF-8"))?
            .to_owned();
        self.pos += n;
        Ok(s)
    }

    /// A collection length, bounded by the bytes actually remaining.
    #[inline]
    pub fn count(&mut self) -> Res<usize> {
        let n = self.u64()?;
        if n > self.remaining() as u64 {
            return Err(bad(format!("collection of {n} items exceeds payload")));
        }
        Ok(n as usize)
    }

    /// A length-prefixed sequence, each item read by `f`.
    pub fn seq<T>(&mut self, mut f: impl FnMut(&mut Dec<'a>) -> Res<T>) -> Res<Vec<T>> {
        let n = self.count()?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(f(self)?);
        }
        Ok(out)
    }

    /// An option tag, then the value read by `f` when present.
    pub fn opt<T>(&mut self, f: impl FnOnce(&mut Dec<'a>) -> Res<T>) -> Res<Option<T>> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(f(self)?)),
            b => Err(bad(format!("invalid option byte {b}"))),
        }
    }

    /// An option whose presence the configuration fixes: a stored value
    /// loads into `blank`, and a tag that disagrees with `blank` being
    /// present is an error naming `what`.
    pub fn opt_into<T: Persist>(&mut self, blank: Option<T::Ctx>, what: &str) -> Res<Option<T>> {
        match (self.u8()?, blank) {
            (0, None) => Ok(None),
            (1, Some(b)) => Ok(Some(T::load(self, b)?)),
            (0 | 1, b) => Err(bad(format!(
                "{what} is {} in the checkpoint but {} in the scenario",
                if b.is_some() { "absent" } else { "present" },
                if b.is_some() { "present" } else { "absent" },
            ))),
            (b, _) => Err(bad(format!("invalid option byte {b}"))),
        }
    }

    /// A one-byte enum tag, mapped through `table`.
    pub fn tag<T: Copy>(&mut self, table: &[T], what: &str) -> Res<T> {
        let b = self.u8()?;
        table
            .get(b as usize)
            .copied()
            .ok_or_else(|| bad(format!("invalid {what} {b}")))
    }
}

/// Implements [`Persist`] for a type from the list of what it stores, in
/// wire order — so each field is named once:
///
/// * `persist!(Name { a, b })` — a struct of persisted fields;
/// * `persist!(Name(u64))` — a newtype;
/// * `persist!(Name { a, b } into blank)` — a machine whose other fields
///   are configuration: the listed registers load into the machine `Ctx`
///   supplies, built from the scenario;
/// * `persist!(enum Name [A, B])` — a fieldless enum, as a one-byte tag
///   (its discriminant; the list is every variant in declaration order).
#[macro_export]
macro_rules! persist {
    (enum $t:ident [$($v:ident),+ $(,)?]) => {
        // The tag is the discriminant, so the list must be in declaration order.
        const _: () = {
            let mut i = 0;
            $(assert!($t::$v as usize == i, "variants listed out of order"); i += 1;)+
            let _ = i;
        };
        impl $crate::persist::Persist for $t {
            type Ctx = ();
            #[inline]
            fn save(&self, e: &mut $crate::persist::Enc) {
                e.u8(*self as u8);
            }
            #[inline]
            fn load(d: &mut $crate::persist::Dec<'_>, _: ()) -> $crate::persist::Res<Self> {
                d.tag(&[$($t::$v),+], stringify!($t))
            }
        }
    };
    ($t:ident($inner:ty)) => {
        impl $crate::persist::Persist for $t {
            type Ctx = ();
            #[inline]
            fn save(&self, e: &mut $crate::persist::Enc) {
                e.put(&self.0);
            }
            #[inline]
            fn load(d: &mut $crate::persist::Dec<'_>, _: ()) -> $crate::persist::Res<Self> {
                Ok($t(d.get::<$inner>()?))
            }
        }
    };
    ($t:ident { $($f:ident),+ $(,)? } into blank) => {
        impl $crate::persist::Persist for $t {
            type Ctx = $t;
            #[inline]
            fn save(&self, e: &mut $crate::persist::Enc) {
                $(e.put(&self.$f);)+
            }
            #[inline]
            fn load(d: &mut $crate::persist::Dec<'_>, blank: $t) -> $crate::persist::Res<Self> {
                Ok($t { $($f: d.get()?,)+ ..blank })
            }
        }
    };
    ($t:ident { $($f:ident),+ $(,)? }) => {
        impl $crate::persist::Persist for $t {
            type Ctx = ();
            #[inline]
            fn save(&self, e: &mut $crate::persist::Enc) {
                $(e.put(&self.$f);)+
            }
            #[inline]
            fn load(d: &mut $crate::persist::Dec<'_>, _: ()) -> $crate::persist::Res<Self> {
                Ok($t { $($f: d.get()?),+ })
            }
        }
    };
}

// ---------------------------------------------------------------------
// Primitives and containers
// ---------------------------------------------------------------------

impl Persist for bool {
    type Ctx = ();
    #[inline]
    fn save(&self, e: &mut Enc) {
        e.boolean(*self);
    }
    #[inline]
    fn load(d: &mut Dec<'_>, _: ()) -> Res<Self> {
        d.boolean()
    }
}

macro_rules! varint {
    ($($t:ty),*) => {$(
        impl Persist for $t {
            type Ctx = ();
            #[inline]
            fn save(&self, e: &mut Enc) {
                e.u64(*self as u64);
            }
            #[inline]
            fn load(d: &mut Dec<'_>, _: ()) -> Res<Self> {
                <$t>::try_from(d.u64()?)
                    .map_err(|_| bad(concat!(stringify!($t), " out of range")))
            }
        }
    )*};
}
varint!(u16, u32, u64, usize);

impl Persist for u128 {
    type Ctx = ();
    #[inline]
    fn save(&self, e: &mut Enc) {
        e.u128(*self);
    }
    #[inline]
    fn load(d: &mut Dec<'_>, _: ()) -> Res<Self> {
        d.u128()
    }
}

impl Persist for f64 {
    type Ctx = ();
    #[inline]
    fn save(&self, e: &mut Enc) {
        e.f64(*self);
    }
    #[inline]
    fn load(d: &mut Dec<'_>, _: ()) -> Res<Self> {
        d.f64()
    }
}

impl Persist for String {
    type Ctx = ();
    #[inline]
    fn save(&self, e: &mut Enc) {
        e.str(self);
    }
    #[inline]
    fn load(d: &mut Dec<'_>, _: ()) -> Res<Self> {
        d.str()
    }
}

impl<T: Persist<Ctx = ()>> Persist for Option<T> {
    type Ctx = ();
    fn save(&self, e: &mut Enc) {
        e.opt(self.as_ref());
    }
    fn load(d: &mut Dec<'_>, _: ()) -> Res<Self> {
        d.opt(|d| d.get())
    }
}

impl<T: Persist<Ctx = ()>> Persist for Vec<T> {
    type Ctx = ();
    fn save(&self, e: &mut Enc) {
        e.seq(self.iter());
    }
    fn load(d: &mut Dec<'_>, _: ()) -> Res<Self> {
        d.seq(|d| d.get())
    }
}

impl<T: Persist<Ctx = ()>> Persist for VecDeque<T> {
    type Ctx = ();
    fn save(&self, e: &mut Enc) {
        e.seq(self.iter());
    }
    fn load(d: &mut Dec<'_>, _: ()) -> Res<Self> {
        Ok(d.get::<Vec<T>>()?.into())
    }
}

/// A fixed-size array: its items, with no length.
impl<T: Persist<Ctx = ()>, const N: usize> Persist for [T; N] {
    type Ctx = ();
    fn save(&self, e: &mut Enc) {
        for x in self {
            x.save(e);
        }
    }
    fn load(d: &mut Dec<'_>, _: ()) -> Res<Self> {
        let items = (0..N).map(|_| d.get()).collect::<Res<Vec<T>>>()?;
        Ok(items
            .try_into()
            .unwrap_or_else(|_| unreachable!("N items read")))
    }
}

/// A map: its length, then its entries in key order.
impl<K: Persist<Ctx = ()> + Ord, V: Persist<Ctx = ()>> Persist for BTreeMap<K, V> {
    type Ctx = ();
    fn save(&self, e: &mut Enc) {
        e.count(self.len());
        for (k, v) in self {
            k.save(e);
            v.save(e);
        }
    }
    fn load(d: &mut Dec<'_>, _: ()) -> Res<Self> {
        Ok(d.get::<Vec<(K, V)>>()?.into_iter().collect())
    }
}

impl<A: Persist<Ctx = ()>, B: Persist<Ctx = ()>> Persist for (A, B) {
    type Ctx = ();
    fn save(&self, e: &mut Enc) {
        self.0.save(e);
        self.1.save(e);
    }
    fn load(d: &mut Dec<'_>, _: ()) -> Res<Self> {
        Ok((d.get()?, d.get()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keyed::EvKey;
    use crate::rng::Rng;
    use crate::time::SimTime;

    fn round_trip<T: Persist<Ctx = ()> + PartialEq + fmt::Debug>(v: T) {
        let mut e = Enc::new();
        e.put(&v);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.get::<T>().expect("decodes"), v);
        assert_eq!(d.remaining(), 0, "{v:?} consumed exactly");
    }

    #[test]
    fn values_round_trip() {
        round_trip(0u64);
        round_trip(u64::MAX);
        round_trip(300u16);
        round_trip(-0.0f64);
        round_trip(String::from("héllo"));
        round_trip(Some(vec![(1u32, true), (u32::MAX, false)]));
        round_trip(None::<u64>);
        round_trip(VecDeque::from([SimTime::from_secs(3)]));
        round_trip(EvKey {
            time: SimTime::from_nanos(7),
            depth: 2,
            ord: u128::MAX,
        });
        round_trip(Rng::new(9));
    }

    #[test]
    fn varints_are_leb128() {
        let mut e = Enc::new();
        e.u64(300);
        e.u128(1 << 70);
        assert_eq!(
            e.into_bytes(),
            [0xac, 0x02, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01]
        );
    }

    #[test]
    fn malformed_input_is_an_error() {
        let cases: [&[u8]; 6] = [
            &[],
            &[0x80; 11],
            &[2],
            &[0xff, 0xff, 0xff, 0xff, 0x0f],
            &[9, 0, 0],
            &[0, 0, 0, 0],
        ];
        let mut d = Dec::new(cases[0]);
        assert!(d.get::<u64>().is_err(), "empty");
        let mut d = Dec::new(cases[1]);
        assert!(d.get::<u64>().is_err(), "overlong varint");
        let mut d = Dec::new(cases[2]);
        assert!(d.get::<bool>().is_err(), "bool byte 2");
        let mut d = Dec::new(cases[3]);
        assert!(d.get::<u16>().is_err(), "u16 out of range");
        let mut d = Dec::new(cases[4]);
        assert!(d.get::<Vec<u64>>().is_err(), "length past the payload");
        let mut d = Dec::new(cases[5]);
        assert!(d.get::<Rng>().is_err(), "all-zero rng");
    }
}
