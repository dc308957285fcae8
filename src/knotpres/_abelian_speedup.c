/* Compiled Smith normal form kernel.

   A line-for-line port of abelian._smith, in the same two phases.  The
   row echelon phase (abelian._echelon) takes the same pivot in each
   column, the first row on ties, and the same floor quotients.  The pivot
   loop has the same pivot rule and (row, column) tie-break, floor
   division, restart after a dirty row or column, and divisibility sweep
   (skipped on unit pivots).  So both kernels return identical D, U and V.
   The input contract is the one abelian._int_rows checks, with the same
   exceptions and messages.

   Entries live in cells of two tiers: a C long long while the magnitude is
   at most SMALL_MAX (2**62 - 1), and above that a sign-magnitude vector of
   64-bit limbs that the cell owns.  The sum or difference of two small
   values cannot overflow a long long, and products are checked before they
   are formed.  Every other sum and every e - q * f runs on limbs with
   128-bit intermediates (unsigned __int128, which the build requires): one
   multiply-accumulate pass per limb of q, in the cell's own buffer, which
   grows in place and is kept when the value turns small again, so a step
   in steady state allocates nothing.  A result is stored small whenever it
   fits, so every value has one representation and any large cell is larger
   in magnitude than every small one.

   Only floor division and remainder with a large operand go through
   Python ints and the number protocol; they happen in the eliminated
   matrix alone and rarely.  Large values enter as base-16 text
   (PyNumber_ToBase) and leave as little-endian bytes
   (_PyLong_FromByteArray), both in linear time.

   Every step that can fail returns 0 on success and -1 with an exception
   set; limb buffers come from PyMem_* and are freed with their matrix. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <limits.h>
#include <stdint.h>
#include <string.h>

#ifndef __SIZEOF_INT128__
#error "the compiled Smith kernel needs a compiler with unsigned __int128"
#endif

#define SMALL_MAX ((1LL << 62) - 1)
#define HALF_BOUND (1LL << 31)
#define LIMB_BITS 64

typedef uint64_t limb;
typedef unsigned __int128 dlimb;  /* holds f * q + r + carry for limbs f, q, r */

typedef struct {
    long long v;  /* the value, when size is 0 */
    limb *d;      /* owned buffer of cap limbs, least significant first */
    int size;     /* 0 when small, else +-(limbs in use), signed as the value */
    int cap;
} Cell;

/* An n_rows x n_cols matrix of cells; rows are swapped by swapping pointers. */
typedef struct {
    Cell **row;
    Cell *cells;
    Py_ssize_t n_rows;
    Py_ssize_t n_cols;
} Matrix;

/* The magnitude of a cell as limbs; a small value is copied into buf. */
typedef struct {
    const limb *d;
    Py_ssize_t n;
    int neg;
    limb buf[1];
} View;

static inline int is_zero(const Cell *c)
{
    return c->size == 0 && c->v == 0;
}

static inline int is_one(const Cell *c)
{
    return c->size == 0 && c->v == 1;
}

static inline int is_negative(const Cell *c)
{
    return c->size ? c->size < 0 : c->v < 0;
}

static inline void negate(Cell *c)
{
    if (c->size)
        c->size = -c->size;
    else
        c->v = -c->v;
}

static void view(View *w, const Cell *c)
{
    if (c->size) {
        w->d = c->d;
        w->n = c->size < 0 ? -c->size : c->size;
        w->neg = c->size < 0;
        return;
    }
    w->buf[0] = c->v < 0 ? 0u - (limb)c->v : (limb)c->v;
    w->d = w->buf;
    w->n = w->buf[0] != 0;
    w->neg = c->v < 0;
}

/* Room for n limbs in c->d, keeping the ones in use. */
static int reserve(Cell *c, Py_ssize_t n)
{
    if (n <= c->cap)
        return 0;
    if (n > INT_MAX / 2) {
        PyErr_NoMemory();
        return -1;
    }
    int cap = (int)(n + n / 2);
    limb *d = PyMem_Realloc(c->d, (size_t)cap * sizeof(limb));
    if (d == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    c->d = d;
    c->cap = cap;
    return 0;
}

/* c gets the sign neg and the first n limbs of c->d: small when it fits. */
static void settle(Cell *c, int neg, Py_ssize_t n)
{
    while (n > 0 && c->d[n - 1] == 0)
        n--;
    if (n == 0 || (n == 1 && c->d[0] <= (limb)SMALL_MAX)) {
        long long a = n == 0 ? 0 : (long long)c->d[0];
        c->v = neg ? -a : a;
        c->size = 0;
    }
    else
        c->size = (int)(neg ? -n : n);
}

/* 1 if |a| < |b|; both are large. */
static int abs_less(const Cell *a, const Cell *b)
{
    int na = a->size < 0 ? -a->size : a->size;
    int nb = b->size < 0 ? -b->size : b->size;
    if (na != nb)
        return na < nb;
    for (int k = na - 1; k >= 0; k--) {
        if (a->d[k] != b->d[k])
            return a->d[k] < b->d[k];
    }
    return 0;
}

/* r[0..n) += q * f[0..nf), n > nf; the carry stays inside r. */
static void addmul_1(limb *r, Py_ssize_t n, const limb *f, Py_ssize_t nf, limb q)
{
    dlimb c = 0;
    Py_ssize_t k = 0;
    for (; k < nf; k++) {
        c += (dlimb)f[k] * q + r[k];
        r[k] = (limb)c;
        c >>= LIMB_BITS;
    }
    for (; c && k < n; k++) {
        c += r[k];
        r[k] = (limb)c;
        c >>= LIMB_BITS;
    }
}

/* r[0..n) -= q * f[0..nf) modulo 2**(64 n), n > nf; 1 if that wrapped. */
static int submul_1(limb *r, Py_ssize_t n, const limb *f, Py_ssize_t nf, limb q)
{
    limb b = 0;  /* the borrow, at most q */
    Py_ssize_t k = 0;
    for (; k < nf; k++) {
        dlimb t = (dlimb)f[k] * q + b;
        limb lo = (limb)t;
        b = (limb)(t >> LIMB_BITS) + (r[k] < lo);
        r[k] -= lo;
    }
    for (; b && k < n; k++) {
        limb lo = b;
        b = r[k] < lo;
        r[k] -= lo;
    }
    return b != 0;
}

/* e += (-1)**neg * |q| * |f| on limbs: a schoolbook product with one
   multiply-accumulate pass per limb of q.  A difference is formed modulo
   2**(64 n); it wraps at most once, and then the two's complement gives
   its magnitude. */
static int accumulate(Cell *e, int neg, const View *q, const View *f)
{
    View ev;
    view(&ev, e);
    Py_ssize_t ne = ev.n;
    int e_neg = ev.neg;
    Py_ssize_t n = (ne > q->n + f->n ? ne : q->n + f->n) + 1;
    if (reserve(e, n) < 0)
        return -1;
    limb *r = e->d;
    if (e->size == 0)
        memcpy(r, ev.buf, sizeof ev.buf);  /* n >= 3: q and f are nonzero */
    for (Py_ssize_t k = ne; k < n; k++)
        r[k] = 0;
    if (ne == 0)
        e_neg = neg;
    if (e_neg == neg) {
        for (Py_ssize_t k = 0; k < q->n; k++)
            addmul_1(r + k, n - k, f->d, f->n, q->d[k]);
    }
    else {
        int wrapped = 0;
        for (Py_ssize_t k = 0; k < q->n; k++)
            wrapped |= submul_1(r + k, n - k, f->d, f->n, q->d[k]);
        if (wrapped) {
            Py_ssize_t k = 0;
            while (r[k] == 0)
                k++;
            r[k] = 0u - r[k];
            for (k++; k < n; k++)
                r[k] = ~r[k];
            e_neg = !e_neg;
        }
    }
    settle(e, e_neg, n);
    return 0;
}

/* e -= q * f; qv is the view of q.  Declared inline so that the row and
   column loops inline the small-value path and call accumulate for the rest. */
static inline int submul(Cell *e, const Cell *q, const View *qv, const Cell *f)
{
    if (is_zero(f))
        return 0;
    if (e->size == 0 && q->size == 0 && f->size == 0) {
        long long a = q->v < 0 ? -q->v : q->v;
        long long b = f->v < 0 ? -f->v : f->v;
        /* |q * f| <= SMALL_MAX, so the product and the difference fit */
        if ((a < HALF_BOUND && b < HALF_BOUND) || a == 0 || b <= SMALL_MAX / a) {
            long long r = e->v - q->v * f->v;
            if (r >= -SMALL_MAX && r <= SMALL_MAX) {
                e->v = r;
                return 0;
            }
        }
    }
    View fv;
    view(&fv, f);
    return accumulate(e, qv->neg == fv.neg, qv, &fv);
}

/* Python int (a new reference) for a cell: a large one is built from the
   little-endian bytes of its magnitude, then negated if it is negative. */
static PyObject *to_object(const Cell *c)
{
    if (c->size == 0)
        return PyLong_FromLongLong(c->v);
    Py_ssize_t n = c->size < 0 ? -c->size : c->size;
    unsigned char local[256];
    size_t len = (size_t)n * sizeof(limb);
    unsigned char *buf = len <= sizeof local ? local : PyMem_Malloc(len);
    if (buf == NULL)
        return PyErr_NoMemory();
    unsigned char *p = buf;
    for (Py_ssize_t k = 0; k < n; k++) {
        for (int s = 0; s < LIMB_BITS; s += 8)
            *p++ = (unsigned char)(c->d[k] >> s);
    }
    PyObject *obj = _PyLong_FromByteArray(buf, len, 1, 0);
    if (buf != local)
        PyMem_Free(buf);
    if (obj != NULL && c->size < 0) {
        PyObject *neg = PyNumber_Negative(obj);
        Py_DECREF(obj);
        obj = neg;
    }
    return obj;
}

static int hex_digit(char ch)
{
    return ch <= '9' ? ch - '0' : ch - 'a' + 10;
}

/* Store the Python int obj (borrowed) into c; small when it fits. */
static int from_object(Cell *c, PyObject *obj)
{
    int overflow;
    long long v = PyLong_AsLongLongAndOverflow(obj, &overflow);
    if (v == -1 && PyErr_Occurred())
        return -1;
    if (!overflow && v >= -SMALL_MAX && v <= SMALL_MAX) {
        c->v = v;
        c->size = 0;
        return 0;
    }
    PyObject *text = PyNumber_ToBase(obj, 16);  /* "0x..." or "-0x..." */
    if (text == NULL)
        return -1;
    Py_ssize_t len;
    const char *s = PyUnicode_AsUTF8AndSize(text, &len);
    if (s == NULL || reserve(c, (len + 15) / 16) < 0) {
        Py_DECREF(text);
        return -1;
    }
    int neg = s[0] == '-';
    Py_ssize_t first = neg + 2, n = 0;
    for (Py_ssize_t end = len; end > first; end -= 16) {
        limb x = 0;
        for (Py_ssize_t k = end - 16 > first ? end - 16 : first; k < end; k++)
            x = x << 4 | (limb)hex_digit(s[k]);
        c->d[n++] = x;
    }
    c->size = (int)(neg ? -n : n);
    Py_DECREF(text);
    return 0;
}

/* Apply a binary number-protocol function to two cells, result into out. */
static int slow_binary(Cell *out, const Cell *a, const Cell *b,
                       PyObject *(*op)(PyObject *, PyObject *))
{
    PyObject *x = to_object(a);
    if (x == NULL)
        return -1;
    PyObject *y = to_object(b);
    if (y == NULL) {
        Py_DECREF(x);
        return -1;
    }
    PyObject *r = op(x, y);
    Py_DECREF(x);
    Py_DECREF(y);
    if (r == NULL)
        return -1;
    int status = from_object(out, r);
    Py_DECREF(r);
    return status;
}

/* out = a // b (floor division, as Python's //); b is nonzero. */
static int floor_div(Cell *out, const Cell *a, const Cell *b)
{
    if (a->size == 0 && b->size == 0) {
        long long q = a->v / b->v;
        if (a->v % b->v != 0 && (a->v < 0) != (b->v < 0))
            q--;
        out->size = 0;
        out->v = q;
        return 0;
    }
    return slow_binary(out, a, b, PyNumber_FloorDivide);
}

/* 1 if a % b is nonzero, 0 if not, -1 on error; b is nonzero. */
static int has_remainder(const Cell *a, const Cell *b)
{
    if (a->size == 0 && b->size == 0)
        return a->v % b->v != 0;
    Cell r = {0, NULL, 0, 0};
    int status = slow_binary(&r, a, b, PyNumber_Remainder);
    PyMem_Free(r.d);
    return status < 0 ? -1 : !is_zero(&r);
}

static void matrix_free(Matrix *m)
{
    if (m->cells != NULL) {
        for (Py_ssize_t k = 0; k < m->n_rows * m->n_cols; k++)
            PyMem_Free(m->cells[k].d);
    }
    PyMem_Free(m->cells);
    PyMem_Free(m->row);
    m->cells = NULL;
    m->row = NULL;
}

/* Zero-filled storage; an empty matrix still gets valid pointers. */
static int matrix_alloc(Matrix *m, Py_ssize_t n_rows, Py_ssize_t n_cols)
{
    m->n_rows = n_rows;
    m->n_cols = n_cols;
    if (n_cols && n_rows > PY_SSIZE_T_MAX / n_cols) {
        PyErr_NoMemory();
        return -1;
    }
    Py_ssize_t n = n_rows * n_cols;
    m->row = PyMem_Calloc(n_rows > 0 ? n_rows : 1, sizeof(Cell *));
    m->cells = PyMem_Calloc(n > 0 ? n : 1, sizeof(Cell));
    if (m->row == NULL || m->cells == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    for (Py_ssize_t i = 0; i < n_rows; i++)
        m->row[i] = m->cells + i * n_cols;
    return 0;
}

static int identity(Matrix *m, Py_ssize_t n)
{
    if (matrix_alloc(m, n, n) < 0)
        return -1;
    for (Py_ssize_t i = 0; i < n; i++)
        m->row[i][i].v = 1;
    return 0;
}

/* The input contract of abelian._int_rows, row by row: each row any
   sequence, all as long as the first, every entry exactly an int.  The
   matrix and its rows are copied to new lists first, as in Python, so code
   run while iterating one row cannot resize another under us.  Each row is
   stored as soon as it passes, so a refusal can come after large cells are
   loaded; the caller frees m either way. */
static int load(PyObject *mat, Matrix *m)
{
    PyObject *rows = PySequence_List(mat);
    if (rows == NULL)
        return -1;
    Py_ssize_t n_rows = PyList_GET_SIZE(rows);
    int status = -1;
    if (n_rows == 0 && matrix_alloc(m, 0, 0) < 0)
        goto out;
    for (Py_ssize_t i = 0; i < n_rows; i++) {
        PyObject *original = PyList_GET_ITEM(rows, i);
        PyObject *row = PySequence_List(original);
        if (row == NULL)
            goto out;
        PyList_SET_ITEM(rows, i, row);  /* the copy replaces the original */
        Py_DECREF(original);
        Py_ssize_t n = PyList_GET_SIZE(row);
        if (i == 0) {
            if (matrix_alloc(m, n_rows, n) < 0)
                goto out;
        }
        else if (n != m->n_cols) {
            PyErr_SetString(PyExc_ValueError, "ragged matrix");
            goto out;
        }
        for (Py_ssize_t j = 0; j < n; j++) {
            PyObject *e = PyList_GET_ITEM(row, j);
            if (!PyLong_CheckExact(e)) {
                PyErr_Format(PyExc_ValueError, "matrix entries must be int, not %.200s",
                             Py_TYPE(e)->tp_name);
                goto out;
            }
            if (from_object(&m->row[i][j], e) < 0)
                goto out;
        }
    }
    status = 0;
out:
    Py_DECREF(rows);
    return status;
}

/* Smallest nonzero |entry| in rows r.. and columns c..cols-1, first in
   row-major order on ties.  1 with *pi, *pj set, 0 if that block is zero. */
static int pivot(const Matrix *m, Py_ssize_t r, Py_ssize_t c, Py_ssize_t cols,
                 Py_ssize_t *pi, Py_ssize_t *pj)
{
    const Cell *best = NULL;
    long long best_abs = 0;
    for (Py_ssize_t i = r; i < m->n_rows; i++) {
        const Cell *mi = m->row[i];
        for (Py_ssize_t j = c; j < cols; j++) {
            const Cell *e = &mi[j];
            int better;
            if (e->size == 0) {
                if (e->v == 0)
                    continue;
                long long a = e->v < 0 ? -e->v : e->v;
                better = best == NULL || best->size != 0 || a < best_abs;
                if (better)
                    best_abs = a;
            }
            else
                better = best == NULL || (best->size != 0 && abs_less(e, best));
            if (better) {
                best = e;
                *pi = i;
                *pj = j;
                if (e->size == 0 && best_abs == 1)
                    return 1;
            }
        }
    }
    return best != NULL;
}

static void negate_row(Cell *row, Py_ssize_t n)
{
    for (Py_ssize_t k = 0; k < n; k++)
        negate(&row[k]);
}

/* Rows a and b of m swap, and of u unless it is NULL. */
static void swap_rows(Matrix *m, Matrix *u, Py_ssize_t a, Py_ssize_t b)
{
    Cell *tmp = m->row[a];
    m->row[a] = m->row[b];
    m->row[b] = tmp;
    if (u != NULL) {
        tmp = u->row[a];
        u->row[a] = u->row[b];
        u->row[b] = tmp;
    }
}

/* Row r of m is negated if its entry in column c is negative, and of u
   with it unless u is NULL. */
static void make_positive(Matrix *m, Matrix *u, Py_ssize_t r, Py_ssize_t c)
{
    if (is_negative(&m->row[r][c])) {
        negate_row(m->row[r], m->n_cols);
        if (u != NULL)
            negate_row(u->row[r], u->n_cols);
    }
}

static void swap_columns(Matrix *m, Py_ssize_t a, Py_ssize_t b)
{
    for (Py_ssize_t r = 0; r < m->n_rows; r++) {
        Cell tmp = m->row[r][a];
        m->row[r][a] = m->row[r][b];
        m->row[r][b] = tmp;
    }
}

/* row dst -= q * row src, over all columns */
static int row_submul(Matrix *m, Py_ssize_t dst, const Cell *q, Py_ssize_t src)
{
    Cell *d = m->row[dst], *s = m->row[src];
    View qv;
    view(&qv, q);
    for (Py_ssize_t k = 0; k < m->n_cols; k++) {
        if (submul(&d[k], q, &qv, &s[k]) < 0)
            return -1;
    }
    return 0;
}

/* column dst -= q * column src, over all rows */
static int column_submul(Matrix *m, Py_ssize_t dst, const Cell *q, Py_ssize_t src)
{
    View qv;
    view(&qv, q);
    for (Py_ssize_t r = 0; r < m->n_rows; r++) {
        if (submul(&m->row[r][dst], q, &qv, &m->row[r][src]) < 0)
            return -1;
    }
    return 0;
}

/* u * m becomes a row echelon form of m, by the row steps of
   abelian._echelon; u is NULL when not tracked.  q is scratch. */
static int echelon(Matrix *m, Matrix *u, Cell *q)
{
    Py_ssize_t rows = m->n_rows, r = 0;
    for (Py_ssize_t c = 0; c < m->n_cols && r < rows; c++) {
        Py_ssize_t pi = 0, pj = 0;
        if (!pivot(m, r, c, c + 1, &pi, &pj))
            continue;
        do {
            if (pi != r)
                swap_rows(m, u, r, pi);
            const Cell *p = &m->row[r][c];
            for (Py_ssize_t i = r + 1; i < rows; i++) {
                if (!is_zero(&m->row[i][c])) {
                    /* the pivot is the smallest entry, so q is nonzero */
                    if (floor_div(q, &m->row[i][c], p) < 0 || row_submul(m, i, q, r) < 0)
                        return -1;
                    if (u != NULL && row_submul(u, i, q, r) < 0)
                        return -1;
                }
            }
        } while (pivot(m, r + 1, c, c + 1, &pi, &pj));
        make_positive(m, u, r, c);
        r++;
    }
    return 0;
}

/* u * m * v becomes the Smith form in m; u and v are NULL when not tracked. */
static int smith(Matrix *m, Matrix *u, Matrix *v)
{
    Py_ssize_t rows = m->n_rows, cols = m->n_cols;
    Py_ssize_t limit = rows < cols ? rows : cols;
    Py_ssize_t t = 0;
    Cell q = {0, NULL, 0, 0};
    int status = -1;
    if (echelon(m, u, &q) < 0)
        goto out;
    while (t < limit) {
        Py_ssize_t pi = 0, pj = 0;
        if (!pivot(m, t, t, cols, &pi, &pj))
            break;
        if (pi != t)
            swap_rows(m, u, t, pi);
        if (pj != t) {
            swap_columns(m, t, pj);
            if (v != NULL)
                swap_columns(v, t, pj);
        }
        make_positive(m, u, t, t);
        const Cell *p = &m->row[t][t];
        int dirty = 0;
        for (Py_ssize_t i = t + 1; i < rows; i++) {
            if (!is_zero(&m->row[i][t])) {
                if (floor_div(&q, &m->row[i][t], p) < 0)
                    goto out;
                if (!is_zero(&q)) {
                    if (row_submul(m, i, &q, t) < 0)
                        goto out;
                    if (u != NULL && row_submul(u, i, &q, t) < 0)
                        goto out;
                }
                if (!is_zero(&m->row[i][t]))
                    dirty = 1;
            }
        }
        for (Py_ssize_t j = t + 1; j < cols; j++) {
            if (!is_zero(&m->row[t][j])) {
                if (floor_div(&q, &m->row[t][j], p) < 0)
                    goto out;
                if (!is_zero(&q)) {
                    if (column_submul(m, j, &q, t) < 0)
                        goto out;
                    if (v != NULL && column_submul(v, j, &q, t) < 0)
                        goto out;
                }
                if (!is_zero(&m->row[t][j]))
                    dirty = 1;
            }
        }
        if (dirty)
            continue;
        /* pivot divides its cleared row and column; enforce the chain
           (a unit pivot divides every entry, so there is nothing to sweep) */
        Py_ssize_t bad = -1;
        if (!is_one(p)) {
            for (Py_ssize_t i = t + 1; i < rows && bad < 0; i++) {
                for (Py_ssize_t j = t + 1; j < cols; j++) {
                    int r = has_remainder(&m->row[i][j], p);
                    if (r < 0)
                        goto out;
                    if (r) {
                        bad = j;
                        break;
                    }
                }
            }
        }
        if (bad >= 0) {
            /* column t += column bad, as column t -= (-1) * column bad */
            static const Cell minus_one = {-1, NULL, 0, 0};
            if (column_submul(m, t, &minus_one, bad) < 0)
                goto out;
            if (v != NULL && column_submul(v, t, &minus_one, bad) < 0)
                goto out;
            continue;
        }
        t++;
    }
    status = 0;
out:
    PyMem_Free(q.d);
    return status;
}

static PyObject *to_lists(const Matrix *m)
{
    PyObject *out = PyList_New(m->n_rows);
    if (out == NULL)
        return NULL;
    for (Py_ssize_t i = 0; i < m->n_rows; i++) {
        PyObject *row = PyList_New(m->n_cols);
        if (row == NULL) {
            Py_DECREF(out);
            return NULL;
        }
        PyList_SET_ITEM(out, i, row);
        for (Py_ssize_t j = 0; j < m->n_cols; j++) {
            PyObject *e = to_object(&m->row[i][j]);
            if (e == NULL) {
                Py_DECREF(out);
                return NULL;
            }
            PyList_SET_ITEM(row, j, e);
        }
    }
    return out;
}

static PyObject *smith_py(PyObject *Py_UNUSED(self), PyObject *args)
{
    PyObject *mat;
    int track;
    if (!PyArg_ParseTuple(args, "Op:smith", &mat, &track))
        return NULL;
    Matrix m = {0}, u = {0}, v = {0};
    PyObject *d = NULL, *du = NULL, *dv = NULL, *result = NULL;
    if (load(mat, &m) < 0)
        goto done;
    if (track && (identity(&u, m.n_rows) < 0 || identity(&v, m.n_cols) < 0))
        goto done;
    if (smith(&m, track ? &u : NULL, track ? &v : NULL) < 0)
        goto done;
    if ((d = to_lists(&m)) == NULL)
        goto done;
    if (track) {
        if ((du = to_lists(&u)) == NULL || (dv = to_lists(&v)) == NULL)
            goto done;
    }
    else {
        du = Py_NewRef(Py_None);
        dv = Py_NewRef(Py_None);
    }
    result = PyTuple_Pack(3, d, du, dv);
done:
    Py_XDECREF(d);
    Py_XDECREF(du);
    Py_XDECREF(dv);
    matrix_free(&m);
    matrix_free(&u);
    matrix_free(&v);
    return result;
}

static PyMethodDef methods[] = {
    {"smith", smith_py, METH_VARARGS,
     "smith(mat, track) -> (d, u, v)\n\n"
     "Smith form d of an int matrix with u * mat * v == d, exactly as\n"
     "abelian._smith computes it; u and v are None unless track is true."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_abelian_speedup",
    .m_doc = "Compiled Smith normal form kernel; see knotpres.abelian._smith.",
    .m_size = 0,
    .m_methods = methods,
};

PyMODINIT_FUNC PyInit__abelian_speedup(void)
{
    return PyModuleDef_Init(&module);
}
