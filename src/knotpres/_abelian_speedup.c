/* Compiled Smith normal form kernel.

   A line-for-line port of abelian._smith: the same pivot rule and
   (row, column) tie-break, floor division, restart after a dirty row or
   column, and divisibility sweep (skipped on unit pivots), so both kernels
   return identical D, U and V.  The input contract is the one
   abelian._int_rows checks, with the same exceptions and messages.

   Entries live in cells: a C long long while the magnitude is at most
   SMALL_MAX (2**62 - 1), a Python int above that.  The sum or difference of
   two small values cannot overflow a long long, and products are checked
   before they are formed.  An operation on a large value, or one whose
   result leaves the small range, goes through the Python number protocol;
   its result is stored back as small when it fits, so every value has one
   representation and any large cell is larger in magnitude than every
   small one.

   Every step that can call into Python returns 0 on success and -1 with an
   exception set. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#define SMALL_MAX ((1LL << 62) - 1)
#define HALF_BOUND (1LL << 31)

typedef struct {
    long long v;    /* the value, when big is NULL */
    PyObject *big;  /* owned reference to an int of magnitude > SMALL_MAX */
} Cell;

/* An n_rows x n_cols matrix of cells; rows are swapped by swapping pointers. */
typedef struct {
    Cell **row;
    Cell *cells;
    Py_ssize_t n_rows;
    Py_ssize_t n_cols;
} Matrix;

static inline int is_zero(const Cell *c)
{
    return c->big == NULL && c->v == 0;
}

static inline int is_one(const Cell *c)
{
    return c->big == NULL && c->v == 1;
}

static PyObject *to_object(const Cell *c)
{
    if (c->big != NULL) {
        Py_INCREF(c->big);
        return c->big;
    }
    return PyLong_FromLongLong(c->v);
}

/* Store obj (a new reference, or NULL on error) into c; small when it fits. */
static int store(Cell *c, PyObject *obj)
{
    if (obj == NULL)
        return -1;
    int overflow;
    long long v = PyLong_AsLongLongAndOverflow(obj, &overflow);
    if (v == -1 && PyErr_Occurred()) {
        Py_DECREF(obj);
        return -1;
    }
    Py_CLEAR(c->big);
    if (!overflow && v >= -SMALL_MAX && v <= SMALL_MAX) {
        c->v = v;
        Py_DECREF(obj);
    }
    else {
        c->v = 0;
        c->big = obj;
    }
    return 0;
}

static int is_negative(const Cell *c)
{
    if (c->big == NULL)
        return c->v < 0;
    int overflow;
    long long v = PyLong_AsLongLongAndOverflow(c->big, &overflow);
    return overflow ? overflow < 0 : v < 0;
}

/* 1 if |a| < |b|, 0 if not, -1 on error; both are large. */
static int abs_less(PyObject *a, PyObject *b)
{
    PyObject *x = PyNumber_Absolute(a);
    if (x == NULL)
        return -1;
    PyObject *y = PyNumber_Absolute(b);
    if (y == NULL) {
        Py_DECREF(x);
        return -1;
    }
    int lt = PyObject_RichCompareBool(x, y, Py_LT);
    Py_DECREF(x);
    Py_DECREF(y);
    return lt;
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
    return store(out, r);
}

static int negate(Cell *c)
{
    if (c->big == NULL) {
        c->v = -c->v;
        return 0;
    }
    return store(c, PyNumber_Negative(c->big));
}

/* out = a // b (floor division, as Python's //); b is nonzero. */
static int floor_div(Cell *out, const Cell *a, const Cell *b)
{
    if (a->big == NULL && b->big == NULL) {
        long long q = a->v / b->v;
        if (a->v % b->v != 0 && (a->v < 0) != (b->v < 0))
            q--;
        Py_CLEAR(out->big);
        out->v = q;
        return 0;
    }
    return slow_binary(out, a, b, PyNumber_FloorDivide);
}

/* 1 if a % b is nonzero, 0 if not, -1 on error; b is nonzero. */
static int has_remainder(const Cell *a, const Cell *b)
{
    if (a->big == NULL && b->big == NULL)
        return a->v % b->v != 0;
    Cell r = {0, NULL};
    if (slow_binary(&r, a, b, PyNumber_Remainder) < 0)
        return -1;
    int nonzero = !is_zero(&r);
    Py_CLEAR(r.big);
    return nonzero;
}

/* e += f */
static int add(Cell *e, const Cell *f)
{
    if (is_zero(f))
        return 0;
    if (e->big == NULL && f->big == NULL) {
        long long r = e->v + f->v;
        if (r >= -SMALL_MAX && r <= SMALL_MAX) {
            e->v = r;
            return 0;
        }
    }
    return slow_binary(e, e, f, PyNumber_Add);
}

/* e -= q * f */
static int submul(Cell *e, const Cell *q, const Cell *f)
{
    if (is_zero(f))
        return 0;
    if (e->big == NULL && q->big == NULL && f->big == NULL) {
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
    Cell p = {0, NULL};
    if (slow_binary(&p, q, f, PyNumber_Multiply) < 0)
        return -1;
    int status = slow_binary(e, e, &p, PyNumber_Subtract);
    Py_CLEAR(p.big);
    return status;
}

static void matrix_free(Matrix *m)
{
    if (m->cells != NULL) {
        for (Py_ssize_t k = 0; k < m->n_rows * m->n_cols; k++)
            Py_XDECREF(m->cells[k].big);
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
   run while iterating one row cannot resize another under us. */
static int load(PyObject *mat, Matrix *m)
{
    PyObject *rows = PySequence_List(mat);
    if (rows == NULL)
        return -1;
    Py_ssize_t n_rows = PyList_GET_SIZE(rows);
    Py_ssize_t n_cols = 0;
    int status = -1;
    for (Py_ssize_t i = 0; i < n_rows; i++) {
        PyObject *original = PyList_GET_ITEM(rows, i);
        PyObject *row = PySequence_List(original);
        if (row == NULL)
            goto out;
        PyList_SET_ITEM(rows, i, row);  /* the copy replaces the original */
        Py_DECREF(original);
        Py_ssize_t n = PyList_GET_SIZE(row);
        if (i == 0)
            n_cols = n;
        else if (n != n_cols) {
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
        }
    }
    if (matrix_alloc(m, n_rows, n_cols) < 0)
        goto out;
    for (Py_ssize_t i = 0; i < n_rows; i++) {
        PyObject *row = PyList_GET_ITEM(rows, i);
        for (Py_ssize_t j = 0; j < n_cols; j++) {
            PyObject *e = PyList_GET_ITEM(row, j);
            Py_INCREF(e);
            if (store(&m->row[i][j], e) < 0)
                goto out;
        }
    }
    status = 0;
out:
    Py_DECREF(rows);
    return status;
}

/* Smallest nonzero |entry| in the trailing submatrix, first in row-major
   order on ties.  1 with *pi, *pj set, 0 if the submatrix is zero, -1 on
   error. */
static int pivot(const Matrix *m, Py_ssize_t t, Py_ssize_t *pi, Py_ssize_t *pj)
{
    const Cell *best = NULL;
    long long best_abs = 0;
    for (Py_ssize_t i = t; i < m->n_rows; i++) {
        const Cell *mi = m->row[i];
        for (Py_ssize_t j = t; j < m->n_cols; j++) {
            const Cell *e = &mi[j];
            int better;
            if (e->big == NULL) {
                if (e->v == 0)
                    continue;
                long long a = e->v < 0 ? -e->v : e->v;
                better = best == NULL || best->big != NULL || a < best_abs;
                if (better)
                    best_abs = a;
            }
            else if (best == NULL)
                better = 1;
            else if (best->big == NULL)
                better = 0;
            else if ((better = abs_less(e->big, best->big)) < 0)
                return -1;
            if (better) {
                best = e;
                *pi = i;
                *pj = j;
                if (e->big == NULL && best_abs == 1)
                    return 1;
            }
        }
    }
    return best != NULL;
}

static int negate_row(Cell *row, Py_ssize_t n)
{
    for (Py_ssize_t k = 0; k < n; k++) {
        if (negate(&row[k]) < 0)
            return -1;
    }
    return 0;
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
    for (Py_ssize_t k = 0; k < m->n_cols; k++) {
        if (submul(&d[k], q, &s[k]) < 0)
            return -1;
    }
    return 0;
}

/* column dst -= q * column src, over all rows */
static int column_submul(Matrix *m, Py_ssize_t dst, const Cell *q, Py_ssize_t src)
{
    for (Py_ssize_t r = 0; r < m->n_rows; r++) {
        if (submul(&m->row[r][dst], q, &m->row[r][src]) < 0)
            return -1;
    }
    return 0;
}

/* column dst += column src, over all rows */
static int column_add(Matrix *m, Py_ssize_t dst, Py_ssize_t src)
{
    for (Py_ssize_t r = 0; r < m->n_rows; r++) {
        if (add(&m->row[r][dst], &m->row[r][src]) < 0)
            return -1;
    }
    return 0;
}

/* u * m * v becomes the Smith form in m; u and v are NULL when not tracked. */
static int smith(Matrix *m, Matrix *u, Matrix *v)
{
    Py_ssize_t rows = m->n_rows, cols = m->n_cols;
    Py_ssize_t limit = rows < cols ? rows : cols;
    Py_ssize_t t = 0;
    Cell q = {0, NULL};
    int status = -1;
    while (t < limit) {
        Py_ssize_t pi = 0, pj = 0;
        int found = pivot(m, t, &pi, &pj);
        if (found < 0)
            goto out;
        if (!found)
            break;
        if (pi != t) {
            Cell *tmp = m->row[t];
            m->row[t] = m->row[pi];
            m->row[pi] = tmp;
            if (u != NULL) {
                tmp = u->row[t];
                u->row[t] = u->row[pi];
                u->row[pi] = tmp;
            }
        }
        if (pj != t) {
            swap_columns(m, t, pj);
            if (v != NULL)
                swap_columns(v, t, pj);
        }
        if (is_negative(&m->row[t][t])) {
            if (negate_row(m->row[t], cols) < 0)
                goto out;
            if (u != NULL && negate_row(u->row[t], rows) < 0)
                goto out;
        }
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
            if (column_add(m, t, bad) < 0)
                goto out;
            if (v != NULL && column_add(v, t, bad) < 0)
                goto out;
            continue;
        }
        t++;
    }
    status = 0;
out:
    Py_CLEAR(q.big);
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

static PyObject *smith_py(PyObject *self, PyObject *args)
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
