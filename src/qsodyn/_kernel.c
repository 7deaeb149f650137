/* Compiled loops of the renormalized quadratic step.

   The single-orbit loops (run, collect, cesaro) make the numpy step of
   tensor.py, `y = np.outer(x, x).ravel() @ flat` then `x = y / y.sum()`,
   the way numpy does it: the exact products x_i x_j, the product by numpy's
   own BLAS dgemv (passed in as a function pointer and called with the
   arguments numpy's matmul uses), numpy's pairwise summation order, and one
   division per coordinate.

   The batched loop (batch) makes the step of tensor.apply_batch when
   einsum runs it as one three-operand contraction,
   `c_einsum('ijk,nj,ni->nk', p, x, x)` then `ys / ys.sum(axis=1)`: each
   y_k starts at 0.0 and adds (p[i,j,k] * x_j) * x_i with i as the outer
   and j as the inner index, then comes the same pairwise sum and division.

   No result depends on an order chosen here, so every loop reproduces its
   numpy loop bit for bit.  Build with -O2 -ffp-contract=off and without
   -ffast-math or -march, so that nothing is fused or reordered.  The caller
   checks that m <= MAX_M, that the arrays are C-contiguous doubles and that
   n_steps >= 0. */

#include <stdint.h>
#include <string.h>

#define MAX_M 64

/* cblas_dgemv with 64-bit integers (numpy's scipy-openblas64 build) */
typedef void (*dgemv_fn)(int order, int trans, int64_t rows, int64_t cols,
                         double alpha, const double *a, int64_t lda,
                         const double *x, int64_t incx, double beta,
                         double *y, int64_t incy);

enum { CBLAS_ROW_MAJOR = 101, CBLAS_TRANS = 112 };

/* numpy's pairwise sum: sequential below 8 terms, eight accumulators up to
   128 terms, halving above that. */
static double pairwise_sum(const double *a, int64_t n)
{
    if (n < 8) {
        double res = 0.0;
        for (int64_t i = 0; i < n; i++)
            res += a[i];
        return res;
    }
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

static void step(dgemv_fn gemv, const double *flat, int64_t m, double *x)
{
    double outer[MAX_M * MAX_M], y[MAX_M], s;
    for (int64_t i = 0; i < m; i++)
        for (int64_t j = 0; j < m; j++)
            outer[i * m + j] = x[i] * x[j];
    /* vector @ matrix: numpy's matmul calls dgemv on the transposed
       row-major (m*m, m) matrix */
    gemv(CBLAS_ROW_MAJOR, CBLAS_TRANS, m * m, m, 1.0, flat, m, outer, 1, 0.0, y, 1);
    s = 0.0 + pairwise_sum(y, m);  /* add.reduce starts from its identity */
    for (int64_t k = 0; k < m; k++)
        x[k] = y[k] / s;
}

/* x <- x^(n_steps) */
void run(dgemv_fn gemv, const double *flat, int64_t m, double *x, int64_t n_steps)
{
    for (int64_t n = 0; n < n_steps; n++)
        step(gemv, flat, m, x);
}

/* Rows of out: x^(0), then x^(n) for every n that is a multiple of stride
   or equal to n_steps. */
void collect(dgemv_fn gemv, const double *flat, int64_t m, double *x,
             int64_t n_steps, int64_t stride, double *out)
{
    memcpy(out, x, m * sizeof *x);
    for (int64_t n = 1; n <= n_steps; n++) {
        step(gemv, flat, m, x);
        if (n % stride == 0 || n == n_steps)
            memcpy(out += m, x, m * sizeof *x);
    }
}

/* For each checkpoint c: sums[c] = x^(0) + ... + x^(c - 1) and
   states[c] = x^(c).  Checkpoints are increasing. */
void cesaro(dgemv_fn gemv, const double *flat, int64_t m, double *x,
            const int64_t *checkpoints, int64_t n_checkpoints,
            double *sums, double *states)
{
    double acc[MAX_M] = {0.0};
    int64_t steps = 0;
    for (int64_t c = 0; c < n_checkpoints; c++) {
        for (; steps < checkpoints[c]; steps++) {
            for (int64_t k = 0; k < m; k++)
                acc[k] += x[k];
            step(gemv, flat, m, x);
        }
        memcpy(sums + c * m, acc, m * sizeof *acc);
        memcpy(states + c * m, x, m * sizeof *x);
    }
}

/* y[k .. k + w - 1], each summed over (i, j) in einsum's order.  w is a
   constant at every call, so the w sums stay in registers. */
static inline void contract(const double *p, int64_t m, const double *x,
                            int64_t k, int w, double *y)
{
    double acc[4] = {0.0, 0.0, 0.0, 0.0};
    const double *q = p + k;
    for (int64_t i = 0; i < m; i++)
        for (int64_t j = 0; j < m; j++, q += m)
            for (int b = 0; b < w; b++)
                acc[b] += (q[b] * x[j]) * x[i];
    for (int b = 0; b < w; b++)
        y[k + b] = acc[b];
}

/* Each of the rows of the (rows, m) array xs <- its x^(n_steps), one row
   at a time so that its state stays in L1.  p is the (m, m, m) tensor. */
void batch(const double *p, int64_t m, double *xs, int64_t rows, int64_t n_steps)
{
    double y[MAX_M], s;
    for (int64_t r = 0; r < rows; r++) {
        double *x = xs + r * m;
        for (int64_t n = 0; n < n_steps; n++) {
            int64_t k = 0;
            for (; k + 4 <= m; k += 4)
                contract(p, m, x, k, 4, y);
            for (; k < m; k++)
                contract(p, m, x, k, 1, y);
            s = 0.0 + pairwise_sum(y, m);
            for (k = 0; k < m; k++)
                x[k] = y[k] / s;
        }
    }
}
