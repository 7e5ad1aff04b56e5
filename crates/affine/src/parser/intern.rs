//! Zero-dependency identifier interner.
//!
//! Maps `&'a str` slices of the source being parsed to dense `u32`
//! symbols so every hot comparison in the parser — keyword checks,
//! duplicate-iterator detection, dimension lookups — is a `u32`
//! equality instead of a byte compare against a heap `String`.
//!
//! FNV-1a over the bytes, open addressing with linear probing, capacity
//! kept a power of two and grown at 75% load. No `unsafe` (the crate
//! forbids it): slots index into `syms` rather than aliasing pointers.
//!
//! A symbol the IR names shares one heap copy of its text ([`shared`]),
//! made the first time it is asked for.
//!
//! [`shared`]: Interner::shared

use std::sync::Arc;

/// Pre-interned symbol for the contextual keyword `kernel`.
pub(crate) const KW_KERNEL: u32 = 0;
/// Pre-interned symbol for the contextual keyword `for`.
pub(crate) const KW_FOR: u32 = 1;
/// Pre-interned symbol for the contextual keyword `seq`.
pub(crate) const KW_SEQ: u32 = 2;

const EMPTY: u32 = u32::MAX;

pub(crate) struct Interner<'a> {
    /// Symbol → string, in insertion order, and its shared copy once one
    /// was made.
    syms: Vec<(&'a str, Option<Arc<str>>)>,
    /// Open-addressed table of symbol ids; `EMPTY` marks a free slot.
    /// Length is always a power of two.
    table: Vec<u32>,
}

impl<'a> Interner<'a> {
    pub(crate) fn new() -> Self {
        let mut interner = Interner {
            syms: Vec::with_capacity(16),
            table: vec![EMPTY; 64],
        };
        // Keywords occupy fixed low symbols so the lexer's dispatch can
        // hand them out without touching the table.
        let kw = (
            interner.intern("kernel"),
            interner.intern("for"),
            interner.intern("seq"),
        );
        debug_assert_eq!(kw, (KW_KERNEL, KW_FOR, KW_SEQ));
        interner
    }

    pub(crate) fn intern(&mut self, s: &'a str) -> u32 {
        let mask = self.table.len() - 1;
        let mut slot = (eatss_trace::fnv1a64(s.as_bytes()) as usize) & mask;
        loop {
            match self.table[slot] {
                EMPTY => break,
                sym if self.syms[sym as usize].0 == s => return sym,
                _ => slot = (slot + 1) & mask,
            }
        }
        let sym = self.syms.len() as u32;
        self.syms.push((s, None));
        self.table[slot] = sym;
        if self.syms.len() * 4 >= self.table.len() * 3 {
            self.grow();
        }
        sym
    }

    pub(crate) fn resolve(&self, sym: u32) -> &'a str {
        self.syms[sym as usize].0
    }

    /// `sym`'s text as a shared string: one heap copy per symbol.
    pub(crate) fn shared(&mut self, sym: u32) -> Arc<str> {
        let (s, shared) = &mut self.syms[sym as usize];
        Arc::clone(shared.get_or_insert_with(|| Arc::from(*s)))
    }

    fn grow(&mut self) {
        let new_len = self.table.len() * 2;
        let mask = new_len - 1;
        let mut table = vec![EMPTY; new_len];
        for (sym, (s, _)) in self.syms.iter().enumerate() {
            let mut slot = (eatss_trace::fnv1a64(s.as_bytes()) as usize) & mask;
            while table[slot] != EMPTY {
                slot = (slot + 1) & mask;
            }
            table[slot] = sym as u32;
        }
        self.table = table;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keywords_get_fixed_symbols() {
        let mut i = Interner::new();
        assert_eq!(i.intern("kernel"), KW_KERNEL);
        assert_eq!(i.intern("for"), KW_FOR);
        assert_eq!(i.intern("seq"), KW_SEQ);
    }

    #[test]
    fn interning_is_idempotent_and_resolvable() {
        let src = "alpha beta alpha gamma beta";
        let mut i = Interner::new();
        let words: Vec<&str> = src.split_whitespace().collect();
        let a1 = i.intern(words[0]);
        let b1 = i.intern(words[1]);
        let a2 = i.intern(words[2]);
        let g = i.intern(words[3]);
        let b2 = i.intern(words[4]);
        assert_eq!(a1, a2);
        assert_eq!(b1, b2);
        assert_ne!(a1, b1);
        assert_ne!(a1, g);
        assert_eq!(i.resolve(a1), "alpha");
        assert_eq!(i.resolve(g), "gamma");
    }

    #[test]
    fn survives_growth_past_initial_capacity() {
        // 64-slot table grows at 48 live symbols; push well past it.
        let names: Vec<String> = (0..512).map(|n| format!("ident_{n}")).collect();
        let mut i = Interner::new();
        let syms: Vec<u32> = names.iter().map(|n| i.intern(n)).collect();
        for (n, &s) in names.iter().zip(&syms) {
            assert_eq!(i.resolve(s), n.as_str());
            assert_eq!(i.intern(n), s);
        }
    }
}
