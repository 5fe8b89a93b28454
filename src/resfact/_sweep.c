/* Exact integer kernels of the decoder's update sweep.
 *
 * Built and loaded by _sweep.py.  Both kernels compute integer sums, so
 * their results do not depend on the order in which they add terms.
 */

#include <stdint.h>
#include <string.h>

/* out[i] = dim - 2 * popcount(rows[i] ^ query): the dot products of n
 * bit-packed bipolar rows of `words` 64-bit words with a packed query.
 * Padding bits are zero in both, so they cancel in the xor. */
void resfact_numerators(const uint64_t *rows, int64_t n, int64_t words,
                        const uint64_t *query, int64_t dim, double *out)
{
    for (int64_t i = 0; i < n; i++) {
        const uint64_t *row = rows + i * words;
        int64_t hamming = 0;
        for (int64_t w = 0; w < words; w++)
            hamming += __builtin_popcountll(row[w] ^ query[w]);
        out[i] = (double)(dim - 2 * hamming);
    }
}

/* sums[j] = sum over k of weights[rows[k]] * book[rows[k]][j], for the n
 * listed rows of a row-major (m, dim) +-1 int8 book.  The weights must be
 * integers of at most dim in magnitude, stored as doubles, and n at most
 * m; since the caller guarantees m * dim < 2**31, no int32 sum can
 * overflow.  Returns -1, or else the first k whose row is out of range or
 * whose weight is not such an integer (or n itself, if n > m), and then
 * leaves sums unset.
 *
 * While 2 * dim fits in int16, so does the sum of two rows' terms: rows
 * are then added four per pass over sums, as two pairs formed in int16
 * arithmetic, twice as many elements per vector instruction.  Other rows
 * are added one per pass, in int32.  Against adding every row in int32,
 * on a 2-vCPU Xeon with AVX-512 and gcc 12.2, the pairing cut the
 * reconstruction at M = D = 1000 with half the rows from 65 to 45 us and
 * at M = 2236, D = 1000 with 9% of them from 36 to 25 us (medians of 7). */
int64_t resfact_superpose(const int8_t *book, int64_t m, int64_t dim,
                          const int64_t *rows, int64_t n, const double *weights, int32_t *sums)
{
    if (n > m)
        return n;
    for (int64_t k = 0; k < n; k++) {
        if (rows[k] < 0 || rows[k] >= m)
            return k;
        const double w = weights[rows[k]];
        if (!(w >= -dim && w <= dim) || w != (double)(int32_t)w)
            return k;
    }
    memset(sums, 0, (size_t)dim * sizeof *sums);
    int64_t k = 0;
    if (2 * dim <= INT16_MAX) {
        for (; k + 4 <= n; k += 4) {
            const int8_t *a = book + rows[k] * dim, *b = book + rows[k + 1] * dim;
            const int8_t *c = book + rows[k + 2] * dim, *d = book + rows[k + 3] * dim;
            const int16_t wa = (int16_t)weights[rows[k]], wb = (int16_t)weights[rows[k + 1]];
            const int16_t wc = (int16_t)weights[rows[k + 2]], wd = (int16_t)weights[rows[k + 3]];
            for (int64_t j = 0; j < dim; j++)
                sums[j] += (int16_t)(wa * a[j] + wb * b[j]) + (int16_t)(wc * c[j] + wd * d[j]);
        }
    }
    for (; k < n; k++) {
        const int8_t *a = book + rows[k] * dim;
        const int32_t wa = (int32_t)weights[rows[k]];
        for (int64_t j = 0; j < dim; j++)
            sums[j] += wa * a[j];
    }
    return -1;
}
