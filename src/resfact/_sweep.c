/* Compiled update sweep of the decoder: one call per factor update.
 *
 * Built and loaded by _sweep.py.  resfact_update does a factor's whole
 * brn/acf update: unbind, pack, search, activation and reconstruction.
 * For imf it stops after the search, because imf's noisy real-valued
 * weights stay in numpy.  Every sum here is an integer sum, so no result
 * depends on the order in which terms are added; the only floating-point
 * operation is the division of each numerator by D, which rounds exactly
 * as numpy's does.
 */

#include <stdint.h>
#include <string.h>

#if !defined(__BYTE_ORDER__) || __BYTE_ORDER__ != __ORDER_LITTLE_ENDIAN__
#error "pack() reads eight int8 elements as one little-endian word"
#endif

/* One factor's constants and scratch buffers, owned by _Kernels in
 * _sweep.py, which takes their addresses once per run.  search holds m
 * bit-packed rows of `words` 64-bit words, book the row-major (m, dim)
 * +-1 int8 reconstruction book; f is the factor of `factors` it updates.
 * query (words), unbound (dim), rows (m), weights (m) and sums (dim) are
 * scratch; after an update, weights holds the factor's numerators. */
struct resfact_plan {
    const uint64_t *search;
    const int8_t *book;
    int64_t m, dim, words, factors, f;
    uint64_t *query;
    int8_t *unbound;
    int64_t *rows;
    double *weights;
    int32_t *sums;
};

/* out[i] = dim - 2 * popcount(rows[i] ^ query): the dot products of n
 * bit-packed bipolar rows of `words` 64-bit words with a packed query.
 * Padding bits are zero in both, so they cancel in the xor. */
static void search(const uint64_t *rows, int64_t n, int64_t words,
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
 * listed rows of a row-major (m, dim) +-1 int8 book.  resfact_update, the
 * one caller, lists rows from 0..m-1, each at most once, and weights them
 * by their numerators, integers in [-dim, dim]; with m * dim < 2**31,
 * which _Kernels checks, no int32 sum can overflow.
 *
 * While 2 * dim fits in int16, so does the sum of two rows' terms: rows
 * are then added four per pass over sums, as two pairs formed in int16
 * arithmetic, twice as many elements per vector instruction.  Other rows
 * are added one per pass, in int32.  Against adding every row in int32,
 * on a 2-vCPU Xeon with AVX-512 and gcc 12.2, the pairing cut the
 * reconstruction at M = D = 1000 with half the rows from 65 to 45 us and
 * at M = 2236, D = 1000 with 9% of them from 36 to 25 us (medians of 7). */
static void superpose(const int8_t *book, int64_t dim, const int64_t *rows, int64_t n,
                      const double *weights, int32_t *sums)
{
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
}

/* Packs a +-1 vector into zero-padded 64-bit words in the bit order of
 * np.packbits (element 0 in the top bit of byte 0), as packing.pack_words
 * packs the search rows.  Eight elements are read as one word: a byte is
 * +1 where its sign bit is clear, and the multiply gathers the eight
 * low bits, byte k's to bit 63 - k, without carries. */
static void pack(const int8_t *v, int64_t dim, int64_t words, uint64_t *query)
{
    uint8_t *bytes = (uint8_t *)query;
    memset(bytes, 0, (size_t)words * 8);
    int64_t j = 0;
    for (; j + 8 <= dim; j += 8) {
        uint64_t w;
        memcpy(&w, v + j, 8);
        w = ~w >> 7 & 0x0101010101010101ULL;
        bytes[j >> 3] = (uint8_t)(w * 0x8040201008040201ULL >> 56);
    }
    for (; j < dim; j++)
        bytes[j >> 3] |= (uint8_t)((v[j] > 0) << (7 - (j & 7)));
}

/* Factor p->f's update within a sweep, on the (factors, dim) int8
 * estimates `working` and the (factors, m) float64 `attentions`:
 *
 * 1. unbind: x times every other factor's row of working;
 * 2. pack the result into the query and search: the numerators, left in
 *    p->weights, and attentions[f] = numerator / dim;
 * 3. unless `reconstruct` is 0 (imf), where it returns 0 here: the rows
 *    whose attention is above `threshold` (strict) survive, and
 *    working[f] becomes the sign of their numerator-weighted sum, with 0
 *    where that sum is exactly zero.
 *
 * Returns the number of zeros left in working[f], for the caller to
 * resolve: dim if no row survives, since working[f] is then all zeros. */
int64_t resfact_update(const struct resfact_plan *p, const int8_t *x, int8_t *working,
                       double *attentions, double threshold, int64_t reconstruct)
{
    const int64_t m = p->m, dim = p->dim;
    int8_t *u = p->unbound;
    memcpy(u, x, (size_t)dim);
    for (int64_t g = 0; g < p->factors; g++) {
        if (g == p->f)
            continue;
        const int8_t *e = working + g * dim;
        for (int64_t j = 0; j < dim; j++)
            u[j] = (int8_t)(u[j] * e[j]);
    }
    pack(u, dim, p->words, p->query);
    search(p->search, m, p->words, p->query, dim, p->weights);
    double *alpha = attentions + p->f * m;
    for (int64_t i = 0; i < m; i++)
        alpha[i] = p->weights[i] / (double)dim;
    if (!reconstruct)
        return 0;

    int64_t n = 0;
    for (int64_t i = 0; i < m; i++)
        if (alpha[i] > threshold)
            p->rows[n++] = i;
    superpose(p->book, dim, p->rows, n, p->weights, p->sums);
    int8_t *est = working + p->f * dim;
    int64_t ties = 0;
    for (int64_t j = 0; j < dim; j++) {
        const int32_t s = p->sums[j];
        est[j] = (int8_t)((s > 0) - (s < 0));
        ties += s == 0;
    }
    return ties;
}
