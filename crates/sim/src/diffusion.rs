//! Proportional error diffusion: how a fleet's server ids are dealt out to
//! weighted classes (hardware generations, LC services).

/// Deals each of `slots` positions to a class by proportional error
/// diffusion over `shares`: at every position each class with a positive
/// share gains its share in credit, the class with the most credit is
/// picked (the lowest index unless another leads by more than 1e-12) and
/// pays one.  Each class's positions thus spread evenly across the range.
/// A class with no positive share is never picked, and nothing is dealt
/// when no share is positive.
///
/// # Example
///
/// ```
/// use heracles_sim::diffuse;
/// let dealt: Vec<usize> = diffuse([0.25, 0.5, 0.25], 8).collect();
/// assert_eq!(dealt, [1, 0, 2, 1, 1, 0, 2, 1]);
/// ```
pub fn diffuse<const N: usize>(shares: [f64; N], slots: usize) -> impl Iterator<Item = usize> {
    let first = shares.iter().position(|&share| share > 0.0).unwrap_or(N);
    let slots = if first < N { slots } else { 0 };
    let mut credit = [0.0f64; N];
    (0..slots).map(move |_| {
        let mut pick = first;
        for (class, &share) in shares.iter().enumerate().skip(first) {
            if share > 0.0 {
                credit[class] += share;
                if credit[class] > credit[pick] + 1e-12 {
                    pick = class;
                }
            }
        }
        credit[pick] -= 1.0;
        pick
    })
}

/// How many of `slots` positions [`diffuse`] deals to each class.
pub fn diffuse_counts<const N: usize>(shares: [f64; N], slots: usize) -> [usize; N] {
    let mut counts = [0; N];
    for class in diffuse(shares, slots) {
        counts[class] += 1;
    }
    counts
}
