//! Packed jungloid-element sequences: the CSR's per-edge elements as
//! the snapshot's 4×`u32` quads, decoded on access.
//!
//! A built graph stores the same quads a loaded one borrows, so the
//! biggest CSR array is one [`Slab`] either way (see
//! `jungloid_typesys::slab`); decoding a quad is a handful of register
//! ops.

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
#[inline]
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

/// The CSR step cost of a quad's element: 0 for a widening, 1 for
/// anything else. It reads only the tag, so it answers for any bits;
/// for a well-formed quad it is the cost of [`decode_quad`]'s element.
pub(crate) fn quad_cost(quad: [u32; 4]) -> u8 {
    u8::from(quad[0] != TAG_WIDEN)
}

/// The CSR's per-edge jungloid elements: one packed `[tag, a, b, c]`
/// quad per element, owned when built and borrowed from the snapshot
/// buffer when loaded. [`ElemSeq::get`] decodes by value (`ElemJungloid`
/// is `Copy`), so search loops never see the storage.
#[derive(Clone, Default, PartialEq)]
pub struct ElemSeq(Slab<[u32; 4]>);

impl ElemSeq {
    /// Wraps quads that are valid: encoded by [`encode_quad`], or checked
    /// with [`decode_quad`] by the loader before anything reads them (the
    /// loader assembles its CSR while that check runs, and drops the CSR
    /// if a quad fails).
    #[must_use]
    pub fn packed(quads: Slab<[u32; 4]>) -> ElemSeq {
        ElemSeq(quads)
    }

    /// The quads, in element order.
    #[must_use]
    pub fn quads(&self) -> &[[u32; 4]] {
        &self.0
    }

    /// Number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the sequence is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The element at `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds (like slice indexing would).
    #[must_use]
    pub fn get(&self, i: usize) -> ElemJungloid {
        decode_quad(self.0[i]).expect("quads are valid at construction")
    }

    /// Iterates the elements in order.
    pub fn iter(&self) -> impl Iterator<Item = ElemJungloid> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// Whether the quads borrow from a snapshot buffer.
    #[must_use]
    pub fn is_borrowed(&self) -> bool {
        self.0.is_borrowed()
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
            assert_eq!(quad_cost(encode_quad(e)), u8::from(!e.is_widen()));
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
    fn packed_elem_seq_decodes_in_order() {
        let elems = vec![
            ElemJungloid::Widen { from: TyId::from_index(1), to: TyId::from_index(2) },
            ElemJungloid::Call { method: MethodId::from_index(0), input: Some(InputSlot::Receiver) },
        ];
        let seq = ElemSeq::packed(Slab::from_vec(elems.iter().map(|&e| encode_quad(e)).collect()));
        assert_eq!(seq.len(), 2);
        assert_eq!(seq.get(1), elems[1]);
        assert_eq!(seq.iter().collect::<Vec<_>>(), elems);
        assert!(!seq.is_borrowed());
    }
}
