//! The flat probe set of one forward pass.

use specasr_tokenizer::TokenId;

/// The probe extensions of one verify pass, stored flat: every probe's
/// tokens back to back in one buffer, and the end offset of each probe in
/// another.
///
/// Probe `i` spans `tokens[ends[i - 1]..ends[i]]` (probe 0 starts at 0), so
/// a probe set of any size is two allocations, and a probe that extends an
/// earlier one by a token ([`Probes::push_extension`]) copies its parent
/// from inside the same buffer.  [`Probes::as_slice`] borrows the set as the
/// [`ProbeSlice`] a [`crate::ForwardRequest`] carries, and a
/// [`crate::BackendBatch`] copies the two buffers as they are.
///
/// # Example
///
/// ```
/// use specasr_models::Probes;
/// use specasr_tokenizer::TokenId;
///
/// let mut probes = Probes::empty_probe();
/// let first = probes.push_extension(0, TokenId::new(7));
/// probes.push_extension(first, TokenId::new(8));
/// assert_eq!(probes.len(), 3);
/// assert_eq!(probes.get(0), &[]);
/// assert_eq!(probes.get(2), &[TokenId::new(7), TokenId::new(8)]);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Probes {
    tokens: Vec<TokenId>,
    ends: Vec<usize>,
}

impl Probes {
    /// An empty probe set.
    pub fn new() -> Self {
        Probes::default()
    }

    /// An empty probe set with room for `probes` probes of `tokens` tokens
    /// in total.
    pub fn with_capacity(probes: usize, tokens: usize) -> Self {
        Probes {
            tokens: Vec::with_capacity(tokens),
            ends: Vec::with_capacity(probes),
        }
    }

    /// The set holding only the empty probe: the position directly after the
    /// prefix, which is all an autoregressive round's verify pass scores.
    pub fn empty_probe() -> Self {
        Probes {
            tokens: Vec::new(),
            ends: vec![0],
        }
    }

    /// Appends `probe` and returns its index.
    pub fn push(&mut self, probe: &[TokenId]) -> usize {
        self.tokens.extend_from_slice(probe);
        self.seal()
    }

    /// Appends probe `parent` followed by `token` and returns its index.
    ///
    /// # Panics
    ///
    /// Panics if `parent` is not a probe of this set.
    pub fn push_extension(&mut self, parent: usize, token: TokenId) -> usize {
        let span = self.as_slice().span(parent);
        self.tokens.extend_from_within(span);
        self.tokens.push(token);
        self.seal()
    }

    /// Number of probes.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// `true` when the set holds no probe.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The tokens of probe `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is not a probe of this set.
    pub fn get(&self, index: usize) -> &[TokenId] {
        self.as_slice().get(index)
    }

    /// The probes in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[TokenId]> + '_ {
        self.as_slice().iter()
    }

    /// The set, borrowed.
    pub fn as_slice(&self) -> ProbeSlice<'_> {
        ProbeSlice::new(&self.tokens, &self.ends)
    }

    /// Closes the probe whose tokens end the buffer, returning its index.
    fn seal(&mut self) -> usize {
        self.ends.push(self.tokens.len());
        self.ends.len() - 1
    }
}

/// A borrowed probe set: a [`Probes`], or the probes of one request in a
/// [`crate::BackendBatch`], laid out the same way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeSlice<'a> {
    tokens: &'a [TokenId],
    /// Where each probe ends in `tokens`.
    ends: &'a [usize],
}

impl<'a> ProbeSlice<'a> {
    pub(crate) fn new(tokens: &'a [TokenId], ends: &'a [usize]) -> Self {
        ProbeSlice { tokens, ends }
    }

    /// Number of probes.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// `true` when the set holds no probe.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The tokens of probe `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is not a probe of this set.
    pub fn get(&self, index: usize) -> &'a [TokenId] {
        &self.tokens[self.span(index)]
    }

    /// The probes in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &'a [TokenId]> + 'a {
        let probes = *self;
        (0..self.len()).map(move |index| probes.get(index))
    }

    /// Every probe's tokens, back to back.
    pub(crate) fn tokens(&self) -> &'a [TokenId] {
        self.tokens
    }

    /// Where each probe ends in [`ProbeSlice::tokens`].
    pub(crate) fn ends(&self) -> &'a [usize] {
        self.ends
    }

    fn span(&self, index: usize) -> std::ops::Range<usize> {
        let start = match index {
            0 => 0,
            _ => self.ends[index - 1],
        };
        start..self.ends[index]
    }
}

impl<P: AsRef<[TokenId]>> FromIterator<P> for Probes {
    fn from_iter<I: IntoIterator<Item = P>>(probes: I) -> Self {
        let mut set = Probes::new();
        for probe in probes {
            set.push(probe.as_ref());
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(raw: u32) -> TokenId {
        TokenId::new(raw)
    }

    #[test]
    fn probes_read_back_in_push_order() {
        let nested = [vec![], vec![t(1)], vec![t(1), t(2)], vec![t(9)], vec![]];
        let probes: Probes = nested.iter().collect();
        assert_eq!(probes.len(), nested.len());
        assert!(!probes.is_empty());
        for (index, probe) in nested.iter().enumerate() {
            assert_eq!(probes.get(index), probe.as_slice());
        }
        assert!(probes.iter().eq(nested.iter().map(Vec::as_slice)));
    }

    #[test]
    fn extensions_copy_their_parent_and_add_one_token() {
        let mut probes = Probes::empty_probe();
        let a = probes.push_extension(0, t(4));
        let b = probes.push_extension(a, t(5));
        let c = probes.push_extension(a, t(6));
        assert_eq!((a, b, c), (1, 2, 3));
        assert_eq!(probes.get(b), &[t(4), t(5)]);
        assert_eq!(probes.get(c), &[t(4), t(6)]);
        assert_eq!(
            probes,
            [&[][..], &[t(4)], &[t(4), t(5)], &[t(4), t(6)]]
                .into_iter()
                .collect()
        );
    }

    #[test]
    fn an_empty_set_has_no_probes() {
        let probes = Probes::new();
        assert!(probes.is_empty());
        assert_eq!(probes.iter().count(), 0);
        assert_eq!(Probes::empty_probe().get(0), &[]);
    }

    #[test]
    #[should_panic]
    fn reading_past_the_last_probe_panics() {
        Probes::empty_probe().get(1);
    }
}
