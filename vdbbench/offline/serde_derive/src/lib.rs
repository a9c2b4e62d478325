//! Offline stand-in: accepts the derives (and `#[serde(...)]` attrs)
//! and emits nothing — no code in the workspace names a Serialize /
//! Deserialize bound, so empty impls are never missed.

use proc_macro::TokenStream;

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(_item: TokenStream) -> TokenStream {
    TokenStream::new()
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(_item: TokenStream) -> TokenStream {
    TokenStream::new()
}
