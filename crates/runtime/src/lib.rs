//! Inference-runtime substrate: KV-cache bookkeeping, draft token trees, and
//! SpecInfer-style 2-D tree attention masks.
//!
//! The decoding policies in the `specasr` crate are written against four
//! runtime primitives:
//!
//! * [`KvCache`] — position bookkeeping of a transformer KV cache, including
//!   the rollback that happens when speculative tokens are rejected,
//! * [`KvPool`] / [`BlockPool`] / [`BlockTable`] — the paged memory substrate
//!   behind multi-session serving: fixed-size ref-counted blocks with a free
//!   list, prefix sharing keyed on prompt hashes, and copy-on-write,
//! * [`TokenTree`] — the draft token tree: a trunk of sequential draft tokens
//!   plus sparse side branches (two-pass sparse-tree prediction) and recycled
//!   branches (draft sequence recycling),
//! * [`TreeAttentionMask`] — the 2-D attention mask that lets the target
//!   model verify every branch of a token tree in a single forward pass.
//!
//! # Example
//!
//! ```
//! use specasr_runtime::{TokenTree, NodeOrigin};
//! use specasr_tokenizer::TokenId;
//!
//! let mut tree = TokenTree::new();
//! let a = tree.push_root(TokenId::new(10), 0.9, NodeOrigin::Trunk);
//! let b = tree.push_child(a, TokenId::new(11), 0.8, NodeOrigin::Trunk);
//! let _alt = tree.push_child(a, TokenId::new(12), 0.1, NodeOrigin::Branch);
//! assert_eq!(tree.path_tokens(b), vec![TokenId::new(10), TokenId::new(11)]);
//! assert_eq!(tree.len(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod kv_cache;
mod mask;
mod paged;
mod tree;

pub use kv_cache::{KvCache, PrefillError};
pub use mask::TreeAttentionMask;
pub use paged::{BlockId, BlockPool, BlockTable, KvPool, PoolCounters, PoolError};
pub use tree::{NodeId, NodeOrigin, TokenTree, TreeNode};
