/* Compiled loops of the renormalized quadratic step.

   The single-orbit loop (orbit) makes the numpy step of tensor.py,
   `y = np.outer(x, x).ravel() @ flat` then `x = y / y.sum()`, the way numpy
   does it: the exact products x_i x_j, the product by numpy's own BLAS
   dgemv (passed in as a function pointer and called with the arguments
   numpy's matmul uses), numpy's pairwise summation order, and one division
   per coordinate.  It keeps the state and the running sum at each of a list
   of step marks: tensor.run is one mark, run_collect and iterate one mark
   per recorded step, and cesaro one per checkpoint with the sums.

   The batched loop (batch) makes the step of tensor.apply_batch for any
   number of rows, `np.einsum('ijk,nj,ni->nk', p, xs, xs)` then
   `ys / ys.sum(axis=1)`: each y_k starts at 0.0 and adds
   (p[i,j,k] * x_j) * x_i with i as the outer and j as the inner index,
   then the same pairwise sum and division.  It advances two rows at once,
   one in each lane of an SSE2 vector, with the same operations per lane.

   No result depends on an order chosen here, so every loop reproduces its
   numpy loop bit for bit.  Build with -O2 -ffp-contract=off and without
   -ffast-math or -march, so that nothing is fused or reordered.  The caller
   checks that m <= MAX_M, that the arrays are C-contiguous doubles (the
   marks int64s, increasing from 0 or later) and that n_steps >= 0. */

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

/* numpy's pairwise sum: sequential below 8 terms, eight accumulators up to
   128 terms, halving above that.  The short case is inlined into every
   caller; the rest is a call. */
static double pairwise_sum_blocks(const double *a, int64_t n);

static inline double pairwise_sum(const double *a, int64_t n)
{
    if (n < 8) {
        double res = 0.0;
        for (int64_t i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    return pairwise_sum_blocks(a, n);
}

static double pairwise_sum_blocks(const double *a, int64_t n)
{
    if (n <= 128) {
        double r[8], res;
        int64_t i;
        for (int j = 0; j < 8; j++)
            r[j] = a[j];
        for (i = 8; i < n - (n % 8); i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += a[i + j];
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_sum(a, n2) + pairwise_sum(a + n2, n - n2);
}

/* x <- y / y.sum() */
static inline void renormalize(const double *y, int64_t m, double *x)
{
    double s = 0.0 + pairwise_sum(y, m);  /* add.reduce starts from its identity */
    for (int64_t k = 0; k < m; k++)
        x[k] = y[k] / s;
}

static void step(dgemv_fn gemv, const double *flat, int64_t m, double *x)
{
    double outer[MAX_M * MAX_M], y[MAX_M];
    for (int64_t i = 0; i < m; i++)
        for (int64_t j = 0; j < m; j++)
            outer[i * m + j] = x[i] * x[j];
    /* vector @ matrix: numpy's matmul calls dgemv on the transposed
       row-major (m*m, m) matrix */
    gemv(CBLAS_ROW_MAJOR, CBLAS_TRANS, m * m, m, 1.0, flat, m, outer, 1, 0.0, y, 1);
    renormalize(y, m, x);
}

/* For each mark c: states[c] = x^(marks[c]) and, unless sums is NULL,
   sums[c] = x^(0) + ... + x^(marks[c] - 1).  Marks are increasing and
   start at 0 or later; x is left at x^(marks[n_marks - 1]). */
void orbit(dgemv_fn gemv, const double *flat, int64_t m, double *x,
           const int64_t *marks, int64_t n_marks, double *states, double *sums)
{
    double acc[MAX_M] = {0.0};
    int64_t n = 0;
    for (int64_t c = 0; c < n_marks; c++) {
        for (; n < marks[c]; n++) {
            for (int64_t k = 0; k < m; k++)
                acc[k] += x[k];
            step(gemv, flat, m, x);
        }
        memcpy(states + c * m, x, m * sizeof *x);
        if (sums)
            memcpy(sums + c * m, acc, m * sizeof *acc);
    }
}

/* Two rows, one in each lane of an SSE2 register.  Each operation on a v2d
   is one IEEE multiply, add or divide per lane, so each lane has the bits
   of the same loop on doubles. */
typedef double v2d __attribute__((vector_size(16)));

/* y[k .. k + w - 1], each summed over (i, j) in einsum's order, for both
   rows.  w is a constant at every call, so the w sums stay in registers. */
static inline void contract(const double *p, int64_t m, const v2d *x,
                            int64_t k, int w, v2d *y)
{
    v2d acc[2] = {{0.0, 0.0}, {0.0, 0.0}};
    const double *q = p + k;
    for (int64_t i = 0; i < m; i++)
        for (int64_t j = 0; j < m; j++, q += m)
            for (int b = 0; b < w; b++)
                acc[b] += (q[b] * x[j]) * x[i];
    for (int b = 0; b < w; b++)
        y[k + b] = acc[b];
}

/* Each of the rows of the (rows, m) array xs <- its x^(n_steps), two rows
   at a time, one per lane, so that their state stays in L1; an odd last
   row is paired with itself.  p is the (m, m, m) tensor. */
void batch(const double *p, int64_t m, double *xs, int64_t rows, int64_t n_steps)
{
    v2d x[MAX_M], y[MAX_M];
    double lane[MAX_M];
    for (int64_t r = 0; r < rows; r += 2) {
        double *row[2] = {xs + r * m, xs + (r + 1 < rows ? r + 1 : r) * m};
        for (int64_t k = 0; k < m; k++)
            x[k] = (v2d){row[0][k], row[1][k]};
        for (int64_t n = 0; n < n_steps; n++) {
            int64_t k = 0;
            for (; k + 2 <= m; k += 2)
                contract(p, m, x, k, 2, y);
            if (k < m)
                contract(p, m, x, k, 1, y);
            /* renormalize, lane by lane: below 8 terms numpy's pairwise sum
               is this sequential one; from 8 on, each lane is copied out */
            v2d s = {0.0, 0.0};
            if (m < 8) {
                for (k = 0; k < m; k++)
                    s += y[k];
            } else {
                for (int l = 0; l < 2; l++) {
                    for (k = 0; k < m; k++)
                        lane[k] = y[k][l];
                    s[l] = pairwise_sum(lane, m);
                }
            }
            s = 0.0 + s;
            for (k = 0; k < m; k++)
                x[k] = y[k] / s;
        }
        for (int l = 0; l < 2; l++)
            for (int64_t k = 0; k < m; k++)
                row[l][k] = x[k][l];
    }
}
