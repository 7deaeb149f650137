/* Compiled loops of the renormalized quadratic step.

   Each loop makes the step of a numpy loop of tensor.py the way numpy does
   it and ends the step with renormalize, `x = y / y.sum()`: numpy's
   pairwise summation order, then one division per coordinate.

   The single-orbit loop (orbit) makes the step of tensor._step,
   `y = np.outer(x, x).ravel() @ flat`: the exact products x_i x_j, then the
   product by numpy's own BLAS dgemv (passed in as a function pointer and
   called with the arguments numpy's matmul uses).  It keeps the state and
   the running sum at each of a list of step marks: tensor.run is one mark,
   run_collect and iterate one mark per recorded step, and cesaro one per
   checkpoint with the sums.  It runs a stack of starts one row after the
   other, each through the same one-orbit body with its own state, sums and
   settled mark, so that each row has the bits of a one-row call.

   Once a step of orbit returns its input bit for bit, orbit makes no more
   steps: the step is a function of the bits of x alone, so every later one
   would return the same bits.  The running sum still adds x once per step,
   so the sums keep their bits.  The test is memcmp, not ==, for which -0.0
   and 0.0 are equal although they are different inputs.  (ZAKHAREVICH's
   Cesaro orbit in verify gets there within about 100 of its 10^6 steps.)
   orbit returns the settled mark, the first mark at or after the first step
   found fixed (else the last): every state from there on has its bits.

   The batched loop (batch2, batch4 and batch8, one body built for 2, 4 and
   8 lanes) makes the step of tensor.apply_batch for any number of rows,
   `np.einsum('ijk,nj,ni->nk', p, xs, xs)`: each y_k starts at 0.0 and adds
   (p[i,j,k] * x_j) * x_i with i as the outer and j as the inner index.  It
   advances L rows at once, one in each lane of a vector of L doubles, with
   the same operations per lane: 2 lanes in 16 bytes on every CPU (SSE2 on
   x86-64), and on x86-64 4 lanes in AVX2's 32 bytes and 8 in AVX-512's 64,
   in functions built for those targets alone.  batch_lanes names the widest
   loop the CPU runs, which the loader calls.

   The Newton calls make the per-row steps of an iteration of
   analysis._newton_iterations that numpy's stacked LAPACK solve does not:
   newton_residual those of tensor._newton_residual, stepping with the
   loader's batch<L> (passed as a function pointer), and newton_move those
   of tensor._newton_move, whose clamp np.maximum(v, 0.0) gives 0.0 for
   -0.0.  A row that leaves writes its state to x[rows[r]]; the others are
   packed to the front in order.

   No result depends on an order chosen here, so every loop reproduces its
   numpy loop bit for bit.  Build with -O2 -ffp-contract=off and without
   -ffast-math or -march, so that nothing is fused or reordered.  The caller
   checks that m <= MAX_M, that the arrays are C-contiguous doubles (the
   marks, settled and rows int64s, fixed int8s, the marks increasing from 0
   or later) and that n_steps >= 0. */

#include <math.h>
#include <stdint.h>
#include <string.h>

#define MAX_M 64

/* cblas_dgemv with 64-bit integers (numpy's scipy-openblas64 build).  x is
   not declared const: with it, GCC 12 at -O2 -Wall takes step's outer, every
   entry of which is written before the call, for maybe-uninitialized. */
typedef void (*dgemv_fn)(int order, int trans, int64_t rows, int64_t cols,
                         double alpha, const double *a, int64_t lda,
                         double *x, int64_t incx, double beta,
                         double *y, int64_t incy);

enum { CBLAS_ROW_MAJOR = 101, CBLAS_TRANS = 112 };

/* sum_<T>: numpy's add.reduce of m <= MAX_M terms of type T, a double or a
   vector of one double per lane, built for the target attr: up to 128
   terms 0.0 plus the pairwise sum, below 8 terms one by one, from 8 on
   eight accumulators over the whole blocks of 8, their tree, then the rest
   one by one.  renormalize_<T>: x <- y / y.sum(). */
#define RENORMALIZE(T, attr)                                                   \
attr static inline T sum_##T(const T *y, int64_t m)                            \
{                                                                              \
    T s = {0.0};                                                               \
    int64_t k = 0;                                                             \
    if (m >= 8) {                                                              \
        T r[8];                                                                \
        for (int j = 0; j < 8; j++)                                            \
            r[j] = y[j];                                                       \
        for (k = 8; k + 8 <= m; k += 8)                                        \
            for (int j = 0; j < 8; j++)                                        \
                r[j] += y[k + j];                                              \
        s += ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7])); \
    }                                                                          \
    for (; k < m; k++)                                                         \
        s += y[k];                                                             \
    return s;                                                                  \
}                                                                              \
                                                                               \
attr static inline void renormalize_##T(const T *y, int64_t m, T *x)           \
{                                                                              \
    T s = sum_##T(y, m);                                                       \
    for (int64_t k = 0; k < m; k++)                                            \
        x[k] = y[k] / s;                                                       \
}

RENORMALIZE(double, )

static void step(dgemv_fn gemv, const double *flat, int64_t m, double *x)
{
    double outer[MAX_M * MAX_M], y[MAX_M];
    for (int64_t i = 0; i < m; i++)
        for (int64_t j = 0; j < m; j++)
            outer[i * m + j] = x[i] * x[j];
    /* vector @ matrix: numpy's matmul calls dgemv on the transposed
       row-major (m*m, m) matrix */
    gemv(CBLAS_ROW_MAJOR, CBLAS_TRANS, m * m, m, 1.0, flat, m, outer, 1, 0.0, y, 1);
    renormalize_double(y, m, x);
}

/* For each mark c: states[c] = x^(marks[c]) and, unless sums is NULL,
   sums[c] = x^(0) + ... + x^(marks[c] - 1).  Marks are increasing and
   start at 0 or later; x is left at x^(marks[n_marks - 1]).  Returns the
   settled mark. */
static int64_t orbit1(dgemv_fn gemv, const double *flat, int64_t m, double *x,
                      const int64_t *marks, int64_t n_marks, double *states, double *sums)
{
    double acc[MAX_M] = {0.0}, prev[MAX_M];
    size_t bytes = m * sizeof *x;
    int64_t n = 0, settled = n_marks - 1;
    int fixed = 0;
    for (int64_t c = 0; c < n_marks; c++) {
        for (; n < marks[c] && !fixed; n++) {
            for (int64_t k = 0; k < m; k++)
                acc[k] += x[k];
            memcpy(prev, x, bytes);
            step(gemv, flat, m, x);
            fixed = memcmp(prev, x, bytes) == 0;
            if (fixed)
                settled = c > 0 && marks[c - 1] == n ? c - 1 : c;
        }
        if (sums)
            for (; n < marks[c]; n++)
                for (int64_t k = 0; k < m; k++)
                    acc[k] += x[k];
        memcpy(states + c * m, x, bytes);
        if (sums)
            memcpy(sums + c * m, acc, bytes);
    }
    return settled;
}

/* orbit1 for each row r of the (rows, m) array xs: the (rows, n_marks, m)
   states and sums (unless NULL) get row r's block, settled[r] its mark. */
void orbit(dgemv_fn gemv, const double *flat, int64_t m, double *xs, int64_t rows,
           const int64_t *marks, int64_t n_marks, double *states, double *sums,
           int64_t *settled)
{
    for (int64_t r = 0, block = n_marks * m; r < rows; r++)
        settled[r] = orbit1(gemv, flat, m, xs + r * m, marks, n_marks, states + r * block,
                            sums ? sums + r * block : NULL);
}

/* batch<L>: each of the rows of the (rows, m) array xs <- its x^(n_steps),
   L rows at a time, one per lane of a vector of L doubles, so that their
   state stays in L1; the spare lanes of a partial last group repeat its
   last row.  p is the (m, m, m) tensor, attr the target the loop is built
   for.  Each operation on a vector is one IEEE multiply, add or divide per
   lane, so each lane has the bits of the same loop on doubles, whatever L
   and whichever rows share its vector.

   contract<L> sets y[k .. k + w - 1], each summed over (i, j) in einsum's
   order.  A step calls it for each block of 8 k, then once at the remaining
   width, 1 to 7: w is a constant at every call, so the w sums stay in
   registers and their w chains of m * m dependent adds overlap.  GCC 12 at
   -O2 does not fully unroll the 8-trip loops by itself, and the sums then
   go to the stack: hence the unroll pragmas.  renormalize_vec<L> is built
   for the same target, so no vector is split. */
#define BATCH(L, attr)                                                         \
typedef double vec##L __attribute__((vector_size(8 * L)));                     \
RENORMALIZE(vec##L, attr)                                                      \
                                                                               \
attr static inline void contract##L(const double *p, int64_t m, const vec##L *x, \
                                    int64_t k, int w, vec##L *y)               \
{                                                                              \
    vec##L acc[8] = {{0.0}};                                                   \
    const double *q = p + k;                                                   \
    for (int64_t i = 0; i < m; i++)                                            \
        for (int64_t j = 0; j < m; j++, q += m)                                \
            _Pragma("GCC unroll 8")                                            \
            for (int b = 0; b < w; b++)                                        \
                acc[b] += (q[b] * x[j]) * x[i];                                \
    _Pragma("GCC unroll 8")                                                    \
    for (int b = 0; b < w; b++)                                                \
        y[k + b] = acc[b];                                                     \
}                                                                              \
                                                                               \
attr void batch##L(const double *p, int64_t m, double *xs, int64_t rows,       \
                   int64_t n_steps)                                            \
{                                                                              \
    vec##L x[MAX_M], y[MAX_M];                                                 \
    for (int64_t g = 0; g < rows; g += L) {                                    \
        double *row[L];                                                        \
        for (int l = 0; l < L; l++)                                            \
            row[l] = xs + (g + l < rows ? g + l : rows - 1) * m;               \
        for (int64_t k = 0; k < m; k++)                                        \
            for (int l = 0; l < L; l++)                                        \
                x[k][l] = row[l][k];                                           \
        for (int64_t n = 0; n < n_steps; n++) {                                \
            int64_t k = 0;                                                     \
            for (; k + 8 <= m; k += 8)                                         \
                contract##L(p, m, x, k, 8, y);                                 \
            switch (m - k) {                                                   \
            case 7: contract##L(p, m, x, k, 7, y); break;                      \
            case 6: contract##L(p, m, x, k, 6, y); break;                      \
            case 5: contract##L(p, m, x, k, 5, y); break;                      \
            case 4: contract##L(p, m, x, k, 4, y); break;                      \
            case 3: contract##L(p, m, x, k, 3, y); break;                      \
            case 2: contract##L(p, m, x, k, 2, y); break;                      \
            case 1: contract##L(p, m, x, k, 1, y); break;                      \
            }                                                                  \
            renormalize_vec##L(y, m, x);                                       \
        }                                                                      \
        for (int l = 0; l < L; l++)                                            \
            for (int64_t k = 0; k < m; k++)                                    \
                row[l][k] = x[k][l];                                           \
    }                                                                          \
}

BATCH(2, )
#if defined(__x86_64__)
BATCH(4, __attribute__((target("avx2"))))
BATCH(8, __attribute__((target("avx512f"))))
#endif

/* The widest batch<L> this CPU runs: the loader's batch. */
int batch_lanes(void)
{
#if defined(__x86_64__)
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx512f") ? 8 : __builtin_cpu_supports("avx2") ? 4 : 2;
#else
    return 2;
#endif
}

/* Row r of the live rows of xs leaves, its state s written to x[rows[r]],
   or is packed to the front as row kept; returns the rows kept. */
static int64_t place(int leave, const double *s, int64_t m, double *x, int64_t *rows,
                     double *xs, int64_t r, int64_t kept)
{
    memmove(leave ? x + rows[r] * m : xs + kept * m, s, m * sizeof *s);
    if (!leave)
        rows[kept] = rows[r];
    return kept + !leave;
}

typedef void (*batch_fn)(const double *p, int64_t m, double *xs, int64_t rows, int64_t n_steps);

int64_t newton_residual(batch_fn batch, const double *p, int64_t m, int64_t n, double *x,
                        int64_t *rows, double *xs, double *ys, double *b, int64_t live,
                        double below)
{
    int64_t kept = 0;
    memcpy(ys, xs, live * m * sizeof *xs);
    batch(p, m, ys, live, n);
    for (int64_t r = 0; r < live; r++) {
        const double *xr = xs + r * m, *yr = ys + r * m;
        int stop = 1;
        for (int64_t k = 0; k < m; k++)
            stop &= fabs(yr[k] - xr[k]) < below;
        for (int64_t k = 0; k < m - 1 && !stop; k++)
            b[kept * (m - 1) + k] = -(yr[k] - xr[k]);
        kept = place(stop, xr, m, x, rows, xs, r, kept);
    }
    return kept;
}

/* A clip of 0 is no trust region.  A row whose new state has the bits of its
   old one leaves with fixed[rows[r]] = 1, on every iteration. */
int64_t newton_move(int64_t m, double *x, int64_t *rows, double *xs, int8_t *fixed,
                    const double *dy, int64_t live, double limit, double clip)
{
    int64_t kept = 0;
    for (int64_t r = 0; r < live; r++, dy += m - 1) {
        const double *xr = xs + r * m;
        double v[MAX_M], d[MAX_M], size = 0.0, s;
        int go = 1;
        for (int64_t k = 0; k < m - 1; k++) {
            go &= fabs(dy[k]) <= limit;
            size = fabs(dy[k]) > size ? fabs(dy[k]) : size;
        }
        if (!go) {
            kept = place(1, xr, m, x, rows, xs, r, kept);
            continue;
        }
        for (int64_t k = 0; k < m - 1; k++) {
            d[k] = clip > 0.0 ? dy[k] * (clip / (size > clip ? size : clip)) : dy[k];
            v[k] = xr[k] + d[k];
        }
        v[m - 1] = xr[m - 1] - sum_double(d, m - 1);
        for (int64_t k = 0; k < m; k++)
            v[k] = v[k] <= 0.0 ? 0.0 : v[k];
        s = sum_double(v, m);
        for (int64_t k = 0; k < m; k++)
            v[k] = s <= 0.0 ? 1.0 / m : v[k] / s;
        int same = memcmp(v, xr, m * sizeof *v) == 0;
        fixed[rows[r]] |= same;
        kept = place(same, v, m, x, rows, xs, r, kept);
    }
    return kept;
}
