//! [`Choices`]: the container behind every transition choice set.
//!
//! δ runs once per node per round, and almost every choice set the
//! paper's protocols return has one to three entries: a deterministic
//! step, MIS's fair coin, coloring's draw among at most three free
//! colors. Collecting those into a `Vec` would put a heap allocation and
//! a free on the per-node path of every engine. [`Choices`] holds up to
//! three entries inline and spills to the heap only beyond, while still
//! dereferencing to a slice — so indexing, `len`, iteration and `==`
//! against a `Vec` read as they would on a `Vec`.

use std::ops::Deref;

/// An ordered list of transition choices: up to three inline, a `Vec`
/// beyond. Dereferences to `[T]`; compares equal to any `Vec` or
/// `Choices` holding the same entries in the same order.
#[derive(Clone)]
pub struct Choices<T>(Repr<T>);

#[derive(Clone)]
enum Repr<T> {
    One([T; 1]),
    Two([T; 2]),
    Three([T; 3]),
    /// Zero or more than three entries (an empty list allocates nothing).
    Heap(Vec<T>),
}

impl<T> Choices<T> {
    /// Appends `item`, staying inline up to three entries.
    fn push(&mut self, item: T) {
        self.0 = match std::mem::replace(&mut self.0, Repr::Heap(Vec::new())) {
            Repr::Heap(v) if v.is_empty() => Repr::One([item]),
            Repr::One([a]) => Repr::Two([a, item]),
            Repr::Two([a, b]) => Repr::Three([a, b, item]),
            Repr::Three([a, b, c]) => Repr::Heap(vec![a, b, c, item]),
            Repr::Heap(mut v) => {
                v.push(item);
                Repr::Heap(v)
            }
        };
    }

    /// Maps every entry, preserving order and the inline/heap split.
    pub fn map<U, F: FnMut(T) -> U>(self, mut f: F) -> Choices<U> {
        Choices(match self.0 {
            Repr::One([a]) => Repr::One([f(a)]),
            Repr::Two([a, b]) => Repr::Two([f(a), f(b)]),
            Repr::Three([a, b, c]) => Repr::Three([f(a), f(b), f(c)]),
            Repr::Heap(v) => Repr::Heap(v.into_iter().map(f).collect()),
        })
    }

    /// Takes one entry uniformly at random, consuming the list. A
    /// single-entry list draws nothing from `rng`; otherwise the draw is
    /// one `gen_range(0..len)` — the same draw as indexing the list at
    /// a uniform position, so the RNG stream does not depend on whether
    /// the caller borrows or consumes the choice set.
    ///
    /// # Panics
    /// Panics if the list is empty.
    pub fn draw<R: rand::Rng + ?Sized>(self, rng: &mut R) -> T {
        assert!(!self.is_empty(), "empty transition set");
        let i = if self.len() == 1 {
            0
        } else {
            rng.gen_range(0..self.len())
        };
        self.into_iter()
            .nth(i)
            .expect("index drawn below the length")
    }
}

impl<T> Deref for Choices<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        match &self.0 {
            Repr::One(a) => a,
            Repr::Two(a) => a,
            Repr::Three(a) => a,
            Repr::Heap(v) => v,
        }
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for Choices<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<T: PartialEq> PartialEq for Choices<T> {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}

impl<T: Eq> Eq for Choices<T> {}

impl<T: PartialEq> PartialEq<Vec<T>> for Choices<T> {
    fn eq(&self, other: &Vec<T>) -> bool {
        self[..] == other[..]
    }
}

impl<T> From<Vec<T>> for Choices<T> {
    fn from(v: Vec<T>) -> Self {
        if (1..=3).contains(&v.len()) {
            v.into_iter().collect()
        } else {
            Choices(Repr::Heap(v))
        }
    }
}

impl<T> From<[T; 1]> for Choices<T> {
    fn from(a: [T; 1]) -> Self {
        Choices(Repr::One(a))
    }
}

impl<T> From<[T; 2]> for Choices<T> {
    fn from(a: [T; 2]) -> Self {
        Choices(Repr::Two(a))
    }
}

impl<T> From<[T; 3]> for Choices<T> {
    fn from(a: [T; 3]) -> Self {
        Choices(Repr::Three(a))
    }
}

impl<T> FromIterator<T> for Choices<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut out = Choices(Repr::Heap(Vec::new()));
        for item in iter {
            out.push(item);
        }
        out
    }
}

/// The owning iterator of [`Choices`].
pub struct IntoIter<T>(IterRepr<T>);

enum IterRepr<T> {
    One(std::array::IntoIter<T, 1>),
    Two(std::array::IntoIter<T, 2>),
    Three(std::array::IntoIter<T, 3>),
    Heap(std::vec::IntoIter<T>),
}

impl<T> Iterator for IntoIter<T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        match &mut self.0 {
            IterRepr::One(it) => it.next(),
            IterRepr::Two(it) => it.next(),
            IterRepr::Three(it) => it.next(),
            IterRepr::Heap(it) => it.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match &self.0 {
            IterRepr::One(it) => it.size_hint(),
            IterRepr::Two(it) => it.size_hint(),
            IterRepr::Three(it) => it.size_hint(),
            IterRepr::Heap(it) => it.size_hint(),
        }
    }
}

impl<T> IntoIterator for Choices<T> {
    type Item = T;
    type IntoIter = IntoIter<T>;

    fn into_iter(self) -> IntoIter<T> {
        IntoIter(match self.0 {
            Repr::One(a) => IterRepr::One(a.into_iter()),
            Repr::Two(a) => IterRepr::Two(a.into_iter()),
            Repr::Three(a) => IterRepr::Three(a.into_iter()),
            Repr::Heap(v) => IterRepr::Heap(v.into_iter()),
        })
    }
}

impl<'a, T> IntoIterator for &'a Choices<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn is_inline<T>(c: &Choices<T>) -> bool {
        !matches!(c.0, Repr::Heap(_))
    }

    #[test]
    fn stays_inline_up_to_three_and_spills_beyond() {
        let mut c = Choices::from(Vec::new());
        assert!(c.is_empty());
        for i in 0..5u8 {
            c.push(i);
            assert_eq!(c.len(), i as usize + 1);
            assert_eq!(is_inline(&c), i < 3, "after {} pushes", i + 1);
            assert_eq!(c, (0..=i).collect::<Vec<_>>());
        }
        assert_eq!(c[4], 4);
    }

    #[test]
    fn conversions_agree_with_the_vec_they_replace() {
        for n in 0..6u8 {
            let v: Vec<u8> = (10..10 + n).collect();
            let c = Choices::from(v.clone());
            assert_eq!(is_inline(&c), (1..=3).contains(&n));
            assert_eq!(c, v);
            assert_eq!(v.iter().copied().collect::<Choices<_>>(), c);
            assert_eq!(c.clone().into_iter().collect::<Vec<_>>(), v);
            assert_eq!(format!("{c:?}"), format!("{v:?}"));
            assert_eq!(
                c.map(|x| x as u32 * 2),
                v.iter().map(|&x| x as u32 * 2).collect::<Vec<_>>()
            );
        }
        assert_eq!(Choices::from([1, 2]), vec![1, 2]);
        assert_eq!(Choices::from([1, 2, 3]), Choices::from(vec![1, 2, 3]));
        assert_ne!(Choices::from([1, 2]), Choices::from([2, 1]));
    }

    #[test]
    fn draw_matches_borrowed_uniform_indexing() {
        // The consuming draw must make exactly the draw the borrowed
        // `Transitions::sample` makes, on every representation.
        for n in 1..6u32 {
            let items: Vec<u32> = (0..n).map(|i| i * 7).collect();
            let mut a = SmallRng::seed_from_u64(n as u64);
            let mut b = SmallRng::seed_from_u64(n as u64);
            for _ in 0..50 {
                let expect = if n == 1 {
                    items[0]
                } else {
                    items[rand::Rng::gen_range(&mut a, 0..items.len())]
                };
                assert_eq!(Choices::from(items.clone()).draw(&mut b), expect);
            }
            assert_eq!(
                rand::RngCore::next_u64(&mut a),
                rand::RngCore::next_u64(&mut b)
            );
        }
    }
}
