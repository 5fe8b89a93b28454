/* Compiled update sweep of the decoder.
 *
 * Built and loaded by _sweep.py.  resfact_run runs whole update sweeps
 * of every variant until the convergence test, the decoder's one stopping
 * rule, passes or its budget runs out.  One struct resfact_plan describes
 * the decode: every factor's packed books and the scratch they share.
 * resfact_ties draws every variant's tie-breaks from the tie stream
 * itself, bit for bit as numpy draws them.  Both the search and the
 * reconstruction read books that resfact_pack packs, as pack() packs
 * each query: element j of a row at bit j % 64 of its word j / 64, 1 for
 * +1 and 0 for -1.  Set-up runs here too: resfact_expand turns a
 * codebook's random bytes into +-1, and resfact_init starts every factor
 * at the majority of its packed search rows.
 * brn and acf sum integers, in any order; their one floating-point
 * operation, each numerator / D, rounds exactly as numpy's does.  imf's
 * noise is numpy's own random_standard_normal_fill (libnpyrandom.a),
 * added as numpy's expressions add it, unfused (-ffp-contract=off), and
 * its real-valued sums run in row order.
 */

#include <stdint.h>
#include <string.h>
#if defined(__AVX512F__)
#include <immintrin.h>
#endif

#if !defined(__BYTE_ORDER__) || __BYTE_ORDER__ != __ORDER_LITTLE_ENDIAN__
#error "pack() and superpose_block() read memory as little-endian words"
#endif

/* numpy's bitgen_t (numpy/random/bitgen.h): a bit generator's state and
 * its draw functions, declared here so the build needs no numpy headers. */
typedef struct bitgen {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

/* numpy/random/distributions.h: fills out[0..n) with the draws of
 * Generator.standard_normal(n) from the same bit generator. */
void random_standard_normal_fill(bitgen_t *bitgen_state, intptr_t n, double *out);

/* The constants and scratch buffers of one decode, owned by _Kernels in
 * factorizer.py, which takes their addresses once per run.  search and
 * recon each hold the factors' books in factor order, m bit-packed rows
 * of `words` 64-bit words per factor: the search and the reconstruction
 * books, one and the same array unless the variant is acf.  query
 * (words), unbound (dim), rows (m), weights (m) and sums (64 * words)
 * are scratch that every factor's update shares; after an update,
 * weights holds that factor's reconstruction weights. */
struct resfact_plan {
    const uint64_t *search, *recon;
    int64_t m, dim, words, factors;
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

#if defined(__AVX512BW__)
/* superpose() for the 64 * nw columns of words w0..w0 + nw, nw <= 4, of
 * every listed row, in 2 * nw vectors of 32 int16 lanes: one masked add
 * of the row's weight per 32 columns, the mask being the row's 32 bits
 * there, read as one little-endian uint32.  Every `run` rows the lanes
 * are added to sums in int32 and cleared, so they never hold more than
 * run * dim <= INT16_MAX in magnitude. */
static inline __attribute__((always_inline)) void
superpose_block(const uint64_t *recon, int64_t words, int64_t w0, int nw, const int64_t *rows,
                int64_t n, const double *weights, int64_t run, int32_t *sums)
{
    __m512i acc[8];
    for (int64_t k = 0; k < n;) {
        for (int i = 0; i < 2 * nw; i++)
            acc[i] = _mm512_setzero_si512();
        for (const int64_t end = n - k < run ? n : k + run; k < end; k++) {
            const uint8_t *bits = (const uint8_t *)(recon + rows[k] * words + w0);
            const __m512i w = _mm512_set1_epi16((int16_t)weights[rows[k]]);
            for (int i = 0; i < 2 * nw; i++) {
                uint32_t mask;
                memcpy(&mask, bits + 4 * i, 4);
                acc[i] = _mm512_mask_add_epi16(acc[i], mask, acc[i], w);
            }
        }
        for (int i = 0; i < 2 * nw; i++) {
            int32_t *s = sums + 64 * w0 + 32 * i;
            const __m512i lo = _mm512_cvtepi16_epi32(_mm512_castsi512_si256(acc[i]));
            const __m512i hi = _mm512_cvtepi16_epi32(_mm512_extracti64x4_epi64(acc[i], 1));
            _mm512_storeu_si512(s, _mm512_add_epi32(_mm512_loadu_si512(s), lo));
            _mm512_storeu_si512(s + 16, _mm512_add_epi32(_mm512_loadu_si512(s + 16), hi));
        }
    }
}
#endif

/* Sets sums[j], for every j < 64 * words, to the sum of weights[rows[k]]
 * over the k < n whose row rows[k] of the bit-packed (m, words) book
 * `recon` has bit j set, and returns the sum of all n weights.  Since a
 * +-1 element is 2 * bit - 1, the numerator-weighted sum of the rows at
 * column j is then 2 * sums[j] minus that total, exactly.
 *
 * Both callers list rows from 0..m-1, each at most once, and weight
 * them by integers in [-dim, dim]: resfact_update by their numerators,
 * resfact_init by 1.  With m * dim < 2**31, which _Kernels checks, no
 * int32 sum can overflow.  Padding bits are zero, so the columns from dim on stay 0.
 *
 * With AVX-512BW and dim <= INT16_MAX, a weight fits in int16, and the
 * sums are formed 256 columns at a time in int16 lanes, by masked adds
 * (superpose_block).  Otherwise a plain loop adds each row's weight in
 * int32 where its bit is set.  On a
 * 2-vCPU Xeon with AVX-512 and gcc 12.2, timed alone over one set of
 * rows with warm caches, the masked adds took 7.7 us where the pairwise
 * int16 sum of int8 rows they replaced took 19.6 us, at M = D = 1000
 * with half the rows, and 3.0 against 7.6 us at M = 2236, D = 1000 with
 * 8% of them (medians of 7).  Built without AVX-512, the plain loop
 * took about 1.8 times as long as that int8 sum built the same way. */
static int64_t superpose(const uint64_t *recon, int64_t words, int64_t dim, const int64_t *rows,
                         int64_t n, const double *weights, int32_t *sums)
{
    memset(sums, 0, (size_t)(64 * words) * sizeof *sums);
    int64_t total = 0;
    for (int64_t k = 0; k < n; k++)
        total += (int64_t)weights[rows[k]];
#if defined(__AVX512BW__)
    if (dim <= INT16_MAX) {
        const int64_t run = INT16_MAX / dim;
        int64_t w0 = 0;
        for (; w0 + 4 <= words; w0 += 4)
            superpose_block(recon, words, w0, 4, rows, n, weights, run, sums);
        if (w0 < words)
            superpose_block(recon, words, w0, (int)(words - w0), rows, n, weights, run, sums);
        return total;
    }
#else
    (void)dim;
#endif
    for (int64_t k = 0; k < n; k++) {
        const uint64_t *bits = recon + rows[k] * words;
        const int32_t w = (int32_t)weights[rows[k]];
        for (int64_t i = 0; i < 2 * words; i++) {
            const uint32_t half = (uint32_t)(bits[i / 2] >> 32 * (i % 2));
            int32_t *s = sums + 32 * i;
            for (int b = 0; b < 32; b++)
                s[b] += half >> b & 1 ? w : 0;
        }
    }
    return total;
}

/* Packs a +-1 vector into zero-padded 64-bit words, element j at bit
 * j % 64 of word j / 64: the one packer of every query and book row.
 * An element is +1 where its sign bit is clear.  With AVX-512BW, 64
 * elements at a time give one word, the complement of their sign bits.
 * Otherwise, and for the rest, eight elements are read as one word, and
 * the multiply gathers the eight low bits, byte k's to bit 56 + k,
 * without carries. */
static void pack(const int8_t *v, int64_t dim, int64_t words, uint64_t *out)
{
    uint8_t *bytes = (uint8_t *)out;
    memset(bytes, 0, (size_t)words * 8);
    int64_t j = 0;
#if defined(__AVX512BW__)
    for (; j + 64 <= dim; j += 64)
        out[j >> 6] = ~(uint64_t)_mm512_movepi8_mask(_mm512_loadu_si512(v + j));
#endif
    for (; j + 8 <= dim; j += 8) {
        uint64_t w;
        memcpy(&w, v + j, 8);
        w = ~w >> 7 & 0x0101010101010101ULL;
        bytes[j >> 3] = (uint8_t)(w * 0x0102040810204080ULL >> 56);
    }
    for (; j < dim; j++)
        bytes[j >> 3] |= (uint8_t)((v[j] > 0) << (j & 7));
}

/* pack() of each row of the C-contiguous (m, dim) book `rows`, into m rows of `out`. */
void resfact_pack(const int8_t *rows, int64_t m, int64_t dim, int64_t words, uint64_t *out)
{
    for (int64_t i = 0; i < m; i++)
        pack(rows + i * dim, dim, words, out + i * words);
}

/* Turns n random bytes into +-1 in place: +1 where a byte's top bit is
 * set, -1 elsewhere, as generate_codebook in vsa.py defines a codebook. */
void resfact_expand(int8_t *bytes, int64_t n)
{
    for (int64_t i = 0; i < n; i++)
        bytes[i] = (int8_t)(bytes[i] < 0 ? 1 : -1);
}

/* est[j] = the sign of 2 * sums[j] - total for j < dim, 0 where that is
 * exactly zero; returns the number of zeros.  The restrict pointers tell
 * the compiler that the int8 stores alias no sum, so it vectorizes the
 * loop. */
static int64_t signs(const int32_t *restrict sums, int64_t total, int64_t dim,
                     int8_t *restrict est)
{
    int64_t ties = 0;
    for (int64_t j = 0; j < dim; j++) {
        const int64_t s = 2 * (int64_t)sums[j] - total;
        est[j] = (int8_t)((s > 0) - (s < 0));
        ties += s == 0;
    }
    return ties;
}

/* est[j], j < dim, = the sign of the float64 sum, from 0 in row order
 * k < n, of +-weights[rows[k]] as row rows[k] of the packed `recon` has
 * bit j set or clear, 0 where it is exactly zero; returns the number of
 * zeros.  With AVX-512 a word's 64 sums are eight vectors of doubles;
 * the plain loop multiplies by +-1, which is exact, so both agree. */
static int64_t real_signs(const uint64_t *recon, int64_t words, int64_t dim, const int64_t *rows,
                          int64_t n, const double *weights, int8_t *est)
{
    int64_t ties = 0;
    for (int64_t i = 0; i < words; i++) {
        double sums[64] = {0};
#if defined(__AVX512F__)
        __m512d acc[8] = {};
        for (int64_t k = 0; k < n; k++) {
            const uint8_t *bits = (const uint8_t *)(recon + rows[k] * words + i);
            const double w = weights[rows[k]];
            const __m512d pos = _mm512_set1_pd(w), neg = _mm512_set1_pd(-w);
            for (int q = 0; q < 8; q++)
                acc[q] = _mm512_add_pd(acc[q], _mm512_mask_blend_pd(bits[q], neg, pos));
        }
        for (int q = 0; q < 8; q++)
            _mm512_storeu_pd(sums + 8 * q, acc[q]);
#else
        for (int64_t k = 0; k < n; k++) {
            const uint64_t b = recon[rows[k] * words + i];
            const double w = weights[rows[k]];
            for (int t = 0; t < 64; t++)
                sums[t] += (double)(2 * (int)(b >> t & 1) - 1) * w;
        }
#endif
        for (int64_t t = 0; t < 64 && 64 * i + t < dim; t++) {
            est[64 * i + t] = (int8_t)((sums[t] > 0) - (sums[t] < 0));
            ties += sums[t] == 0;
        }
    }
    return ties;
}

/* Factor f's update within a sweep, on the (factors, dim) int8
 * estimates `working` and the (factors, m) float64 `attentions`:
 *
 * 1. unbind: x times every other factor's row of working;
 * 2. pack the result into the query and search: the numerators, left in
 *    p->weights as the weights, and attentions[f] = numerator / dim;
 * 3. with `noise` (imf; NULL for brn and acf), for M normals z drawn as
 *    noise.standard_normal(M) draws them, alpha += sigma * z and
 *    weight += (dim * sigma) * z, as numpy computes them;
 * 4. the rows whose attention is above `threshold` (strict) survive, and
 *    working[f] becomes the sign of their weighted sum (superpose, or
 *    real_signs for imf), with 0 where that sum is exactly zero.
 *
 * Returns the number of zeros left in working[f]: dim if no row
 * survives, since working[f] is then all zeros. */
static int64_t resfact_update(const struct resfact_plan *p, int64_t f, const int8_t *x,
                              int8_t *working, double *attentions, double threshold, double sigma,
                              bitgen_t *noise)
{
    const int64_t m = p->m, dim = p->dim, book = f * m * p->words;
    int8_t *u = p->unbound;
    memcpy(u, x, (size_t)dim);
    for (int64_t g = 0; g < p->factors; g++) {
        if (g == f)
            continue;
        const int8_t *e = working + g * dim;
        for (int64_t j = 0; j < dim; j++)
            u[j] = (int8_t)(u[j] * e[j]);
    }
    pack(u, dim, p->words, p->query);
    search(p->search + book, m, p->words, p->query, dim, p->weights);
    double *alpha = attentions + f * m;
    if (noise) {
        random_standard_normal_fill(noise, m, alpha);  /* then replaced */
        const double scale = (double)dim * sigma;
        for (int64_t i = 0; i < m; i++) {
            const double z = alpha[i];
            alpha[i] = p->weights[i] / (double)dim + sigma * z;
            p->weights[i] += scale * z;
        }
    } else {
        for (int64_t i = 0; i < m; i++)
            alpha[i] = p->weights[i] / (double)dim;
    }

    /* The survivors, in row order, branchless: in dense brn about half the
     * rows survive, at random.  With AVX-512, eight rows at a time: the
     * indices of those that pass are compressed to the front of a vector,
     * and all eight lanes are stored, which stays within rows[0..m) since
     * n <= i. */
    int64_t n = 0, i = 0;
#if defined(__AVX512F__)
    const __m512d t = _mm512_set1_pd(threshold);
    for (__m512i idx = _mm512_setr_epi64(0, 1, 2, 3, 4, 5, 6, 7); i + 8 <= m; i += 8) {
        const __mmask8 pass = _mm512_cmp_pd_mask(_mm512_loadu_pd(alpha + i), t, _CMP_GT_OQ);
        _mm512_storeu_si512(p->rows + n, _mm512_maskz_compress_epi64(pass, idx));
        n += __builtin_popcount(pass);
        idx = _mm512_add_epi64(idx, _mm512_set1_epi64(8));
    }
#endif
    for (; i < m; i++) {
        p->rows[n] = i;
        n += alpha[i] > threshold;
    }
    if (noise)
        return real_signs(p->recon + book, p->words, dim, p->rows, n, p->weights,
                          working + f * dim);
    const int64_t total = superpose(p->recon + book, p->words, dim, p->rows, n, p->weights,
                                    p->sums);
    return signs(p->sums, total, dim, working + f * dim);
}

/* Replaces the zeros of row[0..n), in index order, with +-1 draws from
 * `ties`, as row[row == 0] = rng.integers(0, 2, size=zeros,
 * dtype=np.int8) * 2 - 1 does with the same generator.  numpy draws such
 * an int8 by Lemire's bounded method with range 1, which never rejects:
 * the value is bit 7 of the next byte of a 32-bit buffer that
 * next_uint32 refills and that is used low byte first.  The buffer
 * starts empty on every call, as on every numpy call.  All ties of
 * every variant are drawn here. */
void resfact_ties(int8_t *row, int64_t n, bitgen_t *ties)
{
    uint32_t buf = 0;
    int left = 0;
    for (int64_t j = 0; j < n; j++) {
        if (row[j])
            continue;
        if (!left) {
            buf = ties->next_uint32(ties->state);
            left = 4;
        }
        row[j] = (int8_t)((int)(buf >> 7 & 1) * 2 - 1);
        buf >>= 8;
        left--;
    }
}

/* Sets each factor's row of the (factors, dim) `working`, in factor
 * order, to the majority of the m packed rows of its search book: the
 * sign of each column's sum, 2 * c - m for c rows with the bit set,
 * which superpose() counts with unit weights.  Each factor's zeros are
 * then drawn from `init` by one resfact_ties call, the draws of
 * sign_to_bipolar in vsa.py on the int64 column sums with the same
 * generator.  Uses the plan's rows, weights and sums scratch. */
void resfact_init(const struct resfact_plan *p, int8_t *working, bitgen_t *init)
{
    const int64_t m = p->m, dim = p->dim;
    for (int64_t i = 0; i < m; i++) {
        p->rows[i] = i;
        p->weights[i] = 1.0;
    }
    for (int64_t f = 0; f < p->factors; f++) {
        int8_t *est = working + f * dim;
        superpose(p->search + f * m * p->words, p->words, dim, p->rows, m, p->weights, p->sums);
        if (signs(p->sums, m, dim, est))
            resfact_ties(est, dim, init);
    }
}

/* Whether some attention of every factor is above `convergence` (strict):
 * the decoder's one stopping rule. */
static int all_above(const double *attentions, int64_t factors, int64_t m, double convergence)
{
    for (int64_t f = 0; f < factors; f++) {
        const double *alpha = attentions + f * m;
        int64_t i = 0;
        while (i < m && !(alpha[i] > convergence))
            i++;
        if (i == m)
            return 0;
    }
    return 1;
}

/* Runs update sweeps over the plan's factors, in order, on the
 * (factors, dim) `working` estimates and (factors, m) `attentions`, in
 * place, imf's with noise of std `sigma` from `noise` (else NULL).
 * Each factor's zeros after its update are resolved from `ties` at once,
 * before the next factor unbinds it; a factor with no survivor thus
 * draws all dim values.  The sweeps stop after the first one where every
 * factor's maximum attention is above `convergence`, or after `budget`
 * sweeps.  Returns the number of sweeps run and sets *converged to
 * whether the last one passed. */
int64_t resfact_run(const struct resfact_plan *p, const int8_t *x, int8_t *working,
                    double *attentions, double threshold, double sigma, double convergence,
                    int64_t budget, bitgen_t *ties, bitgen_t *noise, int64_t *converged)
{
    const int64_t factors = p->factors, dim = p->dim;
    for (int64_t sweep = 1; sweep <= budget; sweep++) {
        for (int64_t f = 0; f < factors; f++)
            if (resfact_update(p, f, x, working, attentions, threshold, sigma, noise))
                resfact_ties(working + f * dim, dim, ties);
        if (all_above(attentions, factors, p->m, convergence)) {
            *converged = 1;
            return sweep;
        }
    }
    *converged = 0;
    return budget;
}
