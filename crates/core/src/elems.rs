//! Packed jungloid-element sequences: the CSR's per-edge elements,
//! either owned structs or the snapshot's 4×`u32` quads decoded on
//! access.
//!
//! Storing the quads packed is what lets the biggest CSR array stay
//! borrowed from a snapshot buffer (see `jungloid_typesys::slab`);
//! decoding a quad is a handful of register ops.

use jungloid_apidef::{ElemJungloid, FieldId, InputSlot, MethodId};
use jungloid_typesys::{Slab, TyId};

/// Quad tag: field access.
const TAG_FIELD: u32 = 0;
/// Quad tag: method call.
const TAG_CALL: u32 = 1;
/// Quad tag: widening conversion.
const TAG_WIDEN: u32 = 2;
/// Quad tag: downcast.
const TAG_DOWNCAST: u32 = 3;

/// Packs one element as the on-disk `[tag, a, b, c]` quad (format v2's
/// CSR element encoding). Unused fields are zero.
#[must_use]
pub fn encode_quad(elem: ElemJungloid) -> [u32; 4] {
    let idx = |i: usize| u32::try_from(i).expect("arena index fits u32");
    match elem {
        ElemJungloid::FieldAccess { field } => [TAG_FIELD, idx(field.index()), 0, 0],
        ElemJungloid::Call { method, input } => {
            let (kind, arg) = match input {
                None => (0, 0),
                Some(InputSlot::Receiver) => (1, 0),
                Some(InputSlot::Arg(i)) => (2, idx(i)),
            };
            [TAG_CALL, idx(method.index()), kind, arg]
        }
        ElemJungloid::Widen { from, to } => [TAG_WIDEN, idx(from.index()), idx(to.index()), 0],
        ElemJungloid::Downcast { from, to } => {
            [TAG_DOWNCAST, idx(from.index()), idx(to.index()), 0]
        }
    }
}

/// Decodes one `[tag, a, b, c]` quad. `None` on a malformed quad (bad
/// tag, bad input kind, or nonzero bits in an unused field) — the loader
/// validates every quad once up front so access-path decoding
/// ([`ElemSeq::get`]) can treat `None` as unreachable.
#[must_use]
pub fn decode_quad(quad: [u32; 4]) -> Option<ElemJungloid> {
    let [tag, a, b, c] = quad;
    match tag {
        TAG_FIELD => {
            if b != 0 || c != 0 {
                return None;
            }
            Some(ElemJungloid::FieldAccess { field: FieldId::from_index(a as usize) })
        }
        TAG_CALL => {
            let input = match b {
                0 if c == 0 => None,
                1 if c == 0 => Some(InputSlot::Receiver),
                2 => Some(InputSlot::Arg(c as usize)),
                _ => return None,
            };
            Some(ElemJungloid::Call { method: MethodId::from_index(a as usize), input })
        }
        TAG_WIDEN if c == 0 => Some(ElemJungloid::Widen {
            from: TyId::from_index(a as usize),
            to: TyId::from_index(b as usize),
        }),
        TAG_DOWNCAST if c == 0 => Some(ElemJungloid::Downcast {
            from: TyId::from_index(a as usize),
            to: TyId::from_index(b as usize),
        }),
        _ => None,
    }
}

/// The CSR's per-edge jungloid elements: owned structs, or the on-disk
/// packed quads decoded on access. [`ElemSeq::get`] returns by value
/// (`ElemJungloid` is `Copy`) so search loops are storage-agnostic.
#[derive(Clone)]
pub enum ElemSeq {
    /// Materialized elements (graphs built in-process, or big-endian
    /// fallback decode).
    Owned(Vec<ElemJungloid>),
    /// Borrowed `[u32; 4]` quads, one per element, pre-validated by the
    /// loader.
    Packed(Slab<u32>),
}

impl ElemSeq {
    /// Wraps pre-validated packed quads (`4 × count` words).
    ///
    /// # Panics
    ///
    /// Panics if the word count is not a multiple of 4. Quad *content*
    /// validity is the loader's responsibility.
    #[must_use]
    pub fn packed(words: Slab<u32>) -> ElemSeq {
        assert!(words.len().is_multiple_of(4), "packed elem storage must be whole quads");
        ElemSeq::Packed(words)
    }

    /// Number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            ElemSeq::Owned(v) => v.len(),
            ElemSeq::Packed(words) => words.len() / 4,
        }
    }

    /// Whether the sequence is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The element at `i`, decoded if packed.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds (like slice indexing would).
    #[must_use]
    pub fn get(&self, i: usize) -> ElemJungloid {
        match self {
            ElemSeq::Owned(v) => v[i],
            ElemSeq::Packed(words) => {
                let w = &words.as_slice()[i * 4..i * 4 + 4];
                decode_quad([w[0], w[1], w[2], w[3]])
                    .expect("packed quads are validated at load")
            }
        }
    }

    /// Iterates the elements in order.
    pub fn iter(&self) -> impl Iterator<Item = ElemJungloid> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// Whether the packed representation backs this sequence.
    #[must_use]
    pub fn is_packed(&self) -> bool {
        matches!(self, ElemSeq::Packed(_))
    }
}

impl Default for ElemSeq {
    fn default() -> Self {
        ElemSeq::Owned(Vec::new())
    }
}

impl PartialEq for ElemSeq {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().zip(other.iter()).all(|(a, b)| a == b)
    }
}

impl std::fmt::Debug for ElemSeq {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quads_round_trip_every_element_shape() {
        let elems = [
            ElemJungloid::FieldAccess { field: FieldId::from_index(5) },
            ElemJungloid::Call { method: MethodId::from_index(9), input: None },
            ElemJungloid::Call {
                method: MethodId::from_index(2),
                input: Some(InputSlot::Receiver),
            },
            ElemJungloid::Call {
                method: MethodId::from_index(3),
                input: Some(InputSlot::Arg(1)),
            },
            ElemJungloid::Widen { from: TyId::from_index(4), to: TyId::from_index(7) },
            ElemJungloid::Downcast { from: TyId::from_index(7), to: TyId::from_index(4) },
        ];
        for e in elems {
            assert_eq!(decode_quad(encode_quad(e)), Some(e));
        }
    }

    #[test]
    fn malformed_quads_are_rejected_not_misread() {
        assert_eq!(decode_quad([4, 0, 0, 0]), None, "unknown tag");
        assert_eq!(decode_quad([0, 1, 2, 0]), None, "field with junk in b");
        assert_eq!(decode_quad([1, 0, 3, 0]), None, "call with bad input kind");
        assert_eq!(decode_quad([1, 0, 1, 5]), None, "receiver call with junk arg");
        assert_eq!(decode_quad([2, 1, 2, 9]), None, "widen with junk in c");
    }

    #[test]
    fn packed_and_owned_elem_seqs_compare_equal() {
        let elems = vec![
            ElemJungloid::Widen { from: TyId::from_index(1), to: TyId::from_index(2) },
            ElemJungloid::Call { method: MethodId::from_index(0), input: Some(InputSlot::Receiver) },
        ];
        let mut words = Vec::new();
        for &e in &elems {
            words.extend_from_slice(&encode_quad(e));
        }
        let packed = ElemSeq::packed(Slab::from_vec(words));
        let owned = ElemSeq::Owned(elems.clone());
        assert_eq!(packed, owned);
        assert_eq!(packed.len(), 2);
        assert_eq!(packed.get(1), elems[1]);
        assert_eq!(packed.iter().collect::<Vec<_>>(), elems);
    }
}
