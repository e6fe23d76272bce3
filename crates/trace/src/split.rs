//! The grouping rule of `split`, written once for every substrate.
//!
//! A split takes one function from parent rank to `(color, key)`, the
//! same on every member, so any rank can compute every other rank's
//! entry: no substrate exchanges them. The threaded runtime, the
//! discrete-event simulator and the schedule recorder all group by
//! [`split_order`], so a child communicator has the same members in the
//! same order on each of them.

/// `MPI_Comm_split`'s grouping over a parent of `size` ranks: every parent
/// rank as `(color, key, parent rank)`, sorted. Each color's members form
/// one contiguous run, colors ascending, and a member's place in its run
/// is its rank in the child communicator — ordered by `(key, parent
/// rank)`.
pub fn split_order(size: usize, f: impl Fn(usize) -> (u64, i64)) -> Vec<(u64, i64, usize)> {
    let mut order: Vec<(u64, i64, usize)> = (0..size)
        .map(|r| {
            let (color, key) = f(r);
            (color, key, r)
        })
        .collect();
    order.sort_unstable();
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_by_color_and_orders_by_key_then_rank() {
        // Colors 1, 0, 1, 0, 1; keys tie on ranks 0 and 4.
        let order = split_order(5, |r| ((r % 2 == 0) as u64, [3, 0, -1, 0, 3][r]));
        assert_eq!(
            order,
            vec![(0, 0, 1), (0, 0, 3), (1, -1, 2), (1, 3, 0), (1, 3, 4)]
        );
    }
}
