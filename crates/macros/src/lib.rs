//! Marker attributes consumed by `press-analyze`.
//!
//! The attributes expand to nothing — they exist so invariants can be
//! written *in the code they protect* and enforced by the static
//! analyzer rather than by convention. Import the crate as `press` so
//! tags read as project attributes:
//!
//! ```rust
//! use press_macros as press;
//!
//! #[press::hot_path]
//! fn post(buf: &mut [u8]) { /* no heap allocation allowed here */ }
//! # fn main() {}
//! ```
//!
//! `press-analyze`'s `hot-path-transitive` rule scans for
//! `#[press::hot_path]` (or `#[hot_path]`) and rejects heap allocation —
//! `Box::new`, growing a `Vec`, cloning buffers — inside the tagged
//! function body and every function it calls.

use proc_macro::TokenStream;

/// Marks a function as part of the communication fast path: the
/// `hot-path-transitive` lint forbids heap allocation inside its body
/// and in everything it calls.
///
/// Expands to the item unchanged; the tag is purely for the analyzer.
#[proc_macro_attribute]
pub fn hot_path(_attr: TokenStream, item: TokenStream) -> TokenStream {
    item
}
