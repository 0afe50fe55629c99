//! Error type for tokenisation failures.

use std::error::Error;
use std::fmt;

use crate::TokenId;

/// Errors produced while encoding text or decoding token ids.
///
/// # Example
///
/// ```
/// use specasr_tokenizer::{TokenId, TokenizeError};
///
/// let err = TokenizeError::UnknownTokenId { id: TokenId::new(9999) };
/// assert!(err.to_string().contains("9999"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenizeError {
    /// A character in the input could not be covered by any vocabulary piece
    /// and the tokenizer was configured to reject unknown characters.
    UncoverableInput {
        /// The character that could not be encoded.
        character: char,
        /// Index of the character within its whitespace-separated word,
        /// counted in characters (of the lowercased word, when the
        /// tokenizer lowercases).
        offset: usize,
    },
    /// A token id outside the vocabulary was passed to `decode`.
    UnknownTokenId {
        /// The offending token id.
        id: TokenId,
    },
}

impl fmt::Display for TokenizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenizeError::UncoverableInput { character, offset } => write!(
                f,
                "character {character:?} at char index {offset} within its word is not covered by the vocabulary"
            ),
            TokenizeError::UnknownTokenId { id } => {
                write!(
                    f,
                    "token id {} is not present in the vocabulary",
                    id.value()
                )
            }
        }
    }
}

impl Error for TokenizeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e1 = TokenizeError::UncoverableInput {
            character: 'ß',
            offset: 3,
        };
        assert!(e1.to_string().contains("char index 3 within its word"));
        let e2 = TokenizeError::UnknownTokenId {
            id: TokenId::new(5),
        };
        assert!(e2.to_string().contains('5'));
    }

    #[test]
    fn error_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TokenizeError>();
    }
}
