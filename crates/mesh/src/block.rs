//! Local grid sections with ghost boundaries.
//!
//! Each process of a mesh-spectral computation owns a contiguous *local
//! section* of the global grid, "surrounded by a ghost boundary containing
//! shadow copies of boundary values from neighboring processes" (paper
//! §3.3, Figure 7). [`Block2`] and [`Block3`] are those sections: dense
//! row-major storage with `g` ghost layers on every side, indexed in
//! interior coordinates so `(-1, j)` addresses the first western ghost cell.

/// A 2-D local section: `nx × ny` interior cells plus `g` ghost layers.
///
/// Indexing is by interior coordinates: valid indices run from `-g` to
/// `nx-1+g` (resp. `ny-1+g`). Storage is row-major with `i` the slow axis.
#[derive(Clone, Debug, PartialEq)]
pub struct Block2<T> {
    /// Interior extent along `i`.
    pub nx: usize,
    /// Interior extent along `j`.
    pub ny: usize,
    /// Ghost width.
    pub g: usize,
    data: Vec<T>,
}

impl<T: Copy> Block2<T> {
    /// A block filled with `fill`.
    pub fn new(nx: usize, ny: usize, g: usize, fill: T) -> Self {
        Block2 {
            nx,
            ny,
            g,
            data: vec![fill; (nx + 2 * g) * (ny + 2 * g)],
        }
    }

    #[inline]
    fn offset(&self, i: isize, j: isize) -> usize {
        let g = self.g as isize;
        debug_assert!(
            i >= -g && i < self.nx as isize + g && j >= -g && j < self.ny as isize + g,
            "index ({i},{j}) out of range for {}x{} block with ghost {}",
            self.nx,
            self.ny,
            self.g
        );
        ((i + g) as usize) * (self.ny + 2 * self.g) + (j + g) as usize
    }

    /// Read the cell at interior coordinates `(i, j)`; ghosts included.
    #[inline]
    pub fn at(&self, i: isize, j: isize) -> T {
        self.data[self.offset(i, j)]
    }

    /// Write the cell at interior coordinates `(i, j)`; ghosts included.
    #[inline]
    pub fn set(&mut self, i: isize, j: isize, v: T) {
        let o = self.offset(i, j);
        self.data[o] = v;
    }

    /// Copy out a strip of `len` cells starting at `(i0, j0)` and advancing
    /// by `(di, dj)` per cell — used to pack ghost-exchange messages.
    ///
    /// Row strips (`di == 0, dj == 1`) are a single `memcpy` of the
    /// underlying storage; column strips (`di == 1, dj == 0`) walk the row
    /// stride directly. Other step patterns fall back to per-cell `at`.
    pub fn pack(&self, i0: isize, j0: isize, di: isize, dj: isize, len: usize) -> Vec<T> {
        let mut out = Vec::with_capacity(len);
        self.pack_into(i0, j0, di, dj, len, &mut out);
        out
    }

    /// [`Block2::pack`] appending into an existing buffer, so multi-layer
    /// ghost exchanges can assemble one message without intermediate
    /// allocations.
    pub fn pack_into(
        &self,
        i0: isize,
        j0: isize,
        di: isize,
        dj: isize,
        len: usize,
        out: &mut Vec<T>,
    ) {
        if len == 0 {
            return;
        }
        if di == 0 && dj == 1 {
            // Row strip: contiguous in storage.
            let start = self.offset(i0, j0);
            let _ = self.offset(i0, j0 + len as isize - 1); // bounds check end
            out.extend_from_slice(&self.data[start..start + len]);
        } else if di == 1 && dj == 0 {
            // Column strip: fixed stride of one row.
            let stride = self.ny + 2 * self.g;
            let start = self.offset(i0, j0);
            let _ = self.offset(i0 + len as isize - 1, j0);
            out.extend((0..len).map(|k| self.data[start + k * stride]));
        } else {
            out.extend((0..len as isize).map(|k| self.at(i0 + k * di, j0 + k * dj)));
        }
    }

    /// Write a strip of cells starting at `(i0, j0)` advancing by
    /// `(di, dj)` — the inverse of [`Block2::pack`], with the same
    /// contiguous (`memcpy`) and strided fast paths.
    pub fn unpack(&mut self, i0: isize, j0: isize, di: isize, dj: isize, vals: &[T]) {
        let len = vals.len();
        if len == 0 {
            return;
        }
        if di == 0 && dj == 1 {
            let start = self.offset(i0, j0);
            let _ = self.offset(i0, j0 + len as isize - 1);
            self.data[start..start + len].copy_from_slice(vals);
        } else if di == 1 && dj == 0 {
            let stride = self.ny + 2 * self.g;
            let start = self.offset(i0, j0);
            let _ = self.offset(i0 + len as isize - 1, j0);
            for (k, v) in vals.iter().enumerate() {
                self.data[start + k * stride] = *v;
            }
        } else {
            for (k, v) in vals.iter().enumerate() {
                self.set(i0 + k as isize * di, j0 + k as isize * dj, *v);
            }
        }
    }

    /// Storage row `i` (interior coordinate; ghost rows are addressable),
    /// ghost columns included: `ny + 2g` cells with interior column `j`
    /// at index `j + g`. Grid operations take rows — one bounds check
    /// per row, contiguous loads the compiler can vectorise — instead of
    /// an [`at`](Block2::at) / [`set`](Block2::set) offset computation
    /// per cell.
    #[inline]
    pub fn row(&self, i: isize) -> &[T] {
        &self.data[self.row_range(i)]
    }

    /// Mutable counterpart of [`Block2::row`].
    #[inline]
    pub fn row_mut(&mut self, i: isize) -> &mut [T] {
        let range = self.row_range(i);
        &mut self.data[range]
    }

    #[inline]
    fn row_range(&self, i: isize) -> std::ops::Range<usize> {
        let g = self.g as isize;
        debug_assert!(
            i >= -g && i < self.nx as isize + g,
            "row {i} out of range for {}x{} block with ghost {}",
            self.nx,
            self.ny,
            self.g
        );
        let stride = self.ny + 2 * self.g;
        let start = (i + g) as usize * stride;
        start..start + stride
    }

    /// The interior cells of row `i`.
    #[inline]
    fn interior_row(&self, i: usize) -> &[T] {
        &self.row(i as isize)[self.g..self.g + self.ny]
    }

    /// The interior as a fresh row-major vector (ghosts stripped).
    pub fn interior(&self) -> Vec<T> {
        let mut out = Vec::with_capacity(self.nx * self.ny);
        for i in 0..self.nx {
            out.extend_from_slice(self.interior_row(i));
        }
        out
    }

    /// Fill the interior from a function of interior coordinates.
    pub fn fill_interior(&mut self, f: impl Fn(usize, usize) -> T) {
        let (g, ny) = (self.g, self.ny);
        for i in 0..self.nx {
            let row = &mut self.row_mut(i as isize)[g..g + ny];
            for (j, cell) in row.iter_mut().enumerate() {
                *cell = f(i, j);
            }
        }
    }

    /// Fold `f` over interior cells.
    pub fn fold_interior<A>(&self, init: A, mut f: impl FnMut(A, T) -> A) -> A {
        let mut acc = init;
        for i in 0..self.nx {
            for &cell in self.interior_row(i) {
                acc = f(acc, cell);
            }
        }
        acc
    }
}

/// A 3-D local section: `nx × ny × nz` interior cells plus `g` ghost
/// layers; indexing follows [`Block2`] conventions with `i` slowest.
#[derive(Clone, Debug, PartialEq)]
pub struct Block3<T> {
    /// Interior extent along `i`.
    pub nx: usize,
    /// Interior extent along `j`.
    pub ny: usize,
    /// Interior extent along `k`.
    pub nz: usize,
    /// Ghost width.
    pub g: usize,
    data: Vec<T>,
}

impl<T: Copy> Block3<T> {
    /// A block filled with `fill`.
    pub fn new(nx: usize, ny: usize, nz: usize, g: usize, fill: T) -> Self {
        Block3 {
            nx,
            ny,
            nz,
            g,
            data: vec![fill; (nx + 2 * g) * (ny + 2 * g) * (nz + 2 * g)],
        }
    }

    #[inline]
    fn offset(&self, i: isize, j: isize, k: isize) -> usize {
        let g = self.g as isize;
        debug_assert!(
            i >= -g
                && i < self.nx as isize + g
                && j >= -g
                && j < self.ny as isize + g
                && k >= -g
                && k < self.nz as isize + g,
            "index ({i},{j},{k}) out of range"
        );
        (((i + g) as usize) * (self.ny + 2 * self.g) + (j + g) as usize) * (self.nz + 2 * self.g)
            + (k + g) as usize
    }

    /// Read the cell at `(i, j, k)`; ghosts included.
    #[inline]
    pub fn at(&self, i: isize, j: isize, k: isize) -> T {
        self.data[self.offset(i, j, k)]
    }

    /// Write the cell at `(i, j, k)`; ghosts included.
    #[inline]
    pub fn set(&mut self, i: isize, j: isize, k: isize, v: T) {
        let o = self.offset(i, j, k);
        self.data[o] = v;
    }

    /// Pack one ghost-exchange face: the plane `axis = plane_idx`
    /// (interior coordinate), covering the interior extents of the other
    /// two axes. Returns values in row-major order of the remaining axes.
    ///
    /// Faces normal to axis 0 or 1 vary `k` fastest, so each row of the
    /// face is one contiguous `memcpy` of `nz` cells; faces normal to
    /// axis 2 gather with a fixed stride of one `k`-row.
    pub fn pack_face(&self, axis: usize, plane_idx: isize) -> Vec<T> {
        let kstride = self.nz + 2 * self.g;
        match axis {
            0 => {
                let mut out = Vec::with_capacity(self.ny * self.nz);
                for u in 0..self.ny as isize {
                    let start = self.offset(plane_idx, u, 0);
                    out.extend_from_slice(&self.data[start..start + self.nz]);
                }
                out
            }
            1 => {
                let mut out = Vec::with_capacity(self.nx * self.nz);
                for u in 0..self.nx as isize {
                    let start = self.offset(u, plane_idx, 0);
                    out.extend_from_slice(&self.data[start..start + self.nz]);
                }
                out
            }
            _ => {
                let mut out = Vec::with_capacity(self.nx * self.ny);
                for u in 0..self.nx as isize {
                    let start = self.offset(u, 0, plane_idx);
                    out.extend((0..self.ny).map(|v| self.data[start + v * kstride]));
                }
                out
            }
        }
    }

    /// Unpack one ghost-exchange face; inverse of [`Block3::pack_face`],
    /// with the same contiguous (`memcpy`) and strided fast paths.
    pub fn unpack_face(&mut self, axis: usize, plane_idx: isize, vals: &[T]) {
        let kstride = self.nz + 2 * self.g;
        match axis {
            0 => {
                debug_assert_eq!(vals.len(), self.ny * self.nz);
                for (u, row) in vals.chunks_exact(self.nz).enumerate() {
                    let start = self.offset(plane_idx, u as isize, 0);
                    self.data[start..start + self.nz].copy_from_slice(row);
                }
            }
            1 => {
                debug_assert_eq!(vals.len(), self.nx * self.nz);
                for (u, row) in vals.chunks_exact(self.nz).enumerate() {
                    let start = self.offset(u as isize, plane_idx, 0);
                    self.data[start..start + self.nz].copy_from_slice(row);
                }
            }
            _ => {
                debug_assert_eq!(vals.len(), self.nx * self.ny);
                for (u, row) in vals.chunks_exact(self.ny).enumerate() {
                    let start = self.offset(u as isize, 0, plane_idx);
                    for (v, val) in row.iter().enumerate() {
                        self.data[start + v * kstride] = *val;
                    }
                }
            }
        }
    }

    /// Fold `f` over interior cells.
    pub fn fold_interior<A>(&self, init: A, mut f: impl FnMut(A, T) -> A) -> A {
        let mut acc = init;
        for i in 0..self.nx as isize {
            for j in 0..self.ny as isize {
                for k in 0..self.nz as isize {
                    acc = f(acc, self.at(i, j, k));
                }
            }
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block2_interior_and_ghost_indexing() {
        let mut b = Block2::new(3, 4, 1, 0i32);
        b.set(0, 0, 5);
        b.set(2, 3, 7);
        b.set(-1, -1, 9); // corner ghost
        b.set(3, 4, 11); // opposite corner ghost
        assert_eq!(b.at(0, 0), 5);
        assert_eq!(b.at(2, 3), 7);
        assert_eq!(b.at(-1, -1), 9);
        assert_eq!(b.at(3, 4), 11);
        assert_eq!(b.at(1, 1), 0);
    }

    #[test]
    fn block2_pack_unpack_roundtrip() {
        let mut b = Block2::new(4, 5, 1, 0.0f64);
        b.fill_interior(|i, j| (i * 10 + j) as f64);
        // Pack the eastmost interior column (j = ny-1).
        let strip = b.pack(0, 4, 1, 0, 4);
        assert_eq!(strip, vec![4.0, 14.0, 24.0, 34.0]);
        // Unpack it into the western ghost column of another block.
        let mut c = Block2::new(4, 5, 1, 0.0f64);
        c.unpack(0, -1, 1, 0, &strip);
        assert_eq!(c.at(2, -1), 24.0);
    }

    #[test]
    fn block2_interior_strips_ghosts() {
        let mut b = Block2::new(2, 2, 2, -1i64);
        b.fill_interior(|i, j| (i * 2 + j) as i64);
        assert_eq!(b.interior(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn block2_rows_are_the_storage_rows_ghosts_included() {
        let mut b = Block2::new(2, 3, 1, 0i32);
        b.fill_interior(|i, j| (i * 10 + j) as i32 + 1);
        b.set(0, -1, -7); // western ghost of row 0
        b.set(2, 1, 99); // southern ghost row
        assert_eq!(b.row(0), &[-7, 1, 2, 3, 0]);
        assert_eq!(b.row(1), &[0, 11, 12, 13, 0]);
        assert_eq!(b.row(2), &[0, 0, 99, 0, 0]);
        assert_eq!(b.row(-1), &[0; 5]);
        b.row_mut(1)[4] = 5; // eastern ghost of row 1
        assert_eq!(b.at(1, 3), 5);
        // A block with no interior columns still has (ghost-only) rows.
        assert_eq!(Block2::new(2, 0, 1, 0u8).row(0).len(), 2);
    }

    #[test]
    fn block2_fold_sums_interior_only() {
        let mut b = Block2::new(3, 3, 1, 100.0f64);
        b.fill_interior(|_, _| 1.0);
        let sum = b.fold_interior(0.0, |a, v| a + v);
        assert_eq!(sum, 9.0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "out of range")]
    fn block2_out_of_range_panics_in_debug() {
        let b = Block2::new(2, 2, 1, 0u8);
        b.at(4, 0);
    }

    #[test]
    fn block3_face_roundtrip() {
        let mut b = Block3::new(2, 3, 4, 1, 0i32);
        for i in 0..2 {
            for j in 0..3 {
                for k in 0..4 {
                    b.set(i, j, k, (i * 100 + j * 10 + k) as i32);
                }
            }
        }
        // Top face along axis 0 (i = nx-1 = 1).
        let face = b.pack_face(0, 1);
        assert_eq!(face.len(), 12);
        assert_eq!(face[0], 100);
        assert_eq!(face[11], 123);
        // Receive into the ghost plane i = -1 of another block.
        let mut c = Block3::new(2, 3, 4, 1, 0i32);
        c.unpack_face(0, -1, &face);
        assert_eq!(c.at(-1, 2, 3), 123);
    }

    #[test]
    fn block3_fold_counts_interior() {
        let b = Block3::new(3, 4, 5, 1, 1u64);
        let count = b.fold_interior(0u64, |a, v| a + v);
        assert_eq!(count, 60);
    }

    #[test]
    fn block3_axis1_and_axis2_faces() {
        let mut b = Block3::new(2, 2, 2, 1, 0i32);
        b.set(0, 1, 0, 7);
        let f1 = b.pack_face(1, 1); // plane j=1: (i,k) row-major
        assert_eq!(f1, vec![7, 0, 0, 0]);
        b.set(1, 0, 1, 9);
        let f2 = b.pack_face(2, 1); // plane k=1: (i,j) row-major
        assert_eq!(f2, vec![0, 0, 9, 0]);
    }
}
