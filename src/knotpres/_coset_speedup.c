/* Compiled coset enumeration kernel.

   Same algorithm as the pure-Python module (_coset_py): HLT scanning with
   row fill, FIFO coincidence merging into the smaller index, budget counted
   in live cosets.  Lookahead passes scan only the cosets from the main
   loop's position on (those behind it have closed relator cycles); the
   main loop runs one whenever the live count reaches a threshold that
   starts at 64 and is reset to eight times the live count after every
   pass, and one runs when the budget is hit.  The flat table additionally
   compacts dead rows away between cosets of the main loop; renumbering
   preserves relative order, so both kernels return identical tables.

   Inside the kernel every step returns a status: 0 to go on, EXHAUSTED when
   a definition would break the budget, NOMEM when an allocation failed,
   SIGNALED when a signal handler raised (the exception is then set).
   Python objects are only read before and built after the enumeration. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <limits.h>
#include <stdlib.h>
#include <string.h>

#define EXHAUSTED (-2)
#define NOMEM (-3)
#define SIGNALED (-4)
/* Signals are checked once per 4096 cosets defined, which polls the main
   loop (between two definitions it processes at most n cosets), and once per
   block of 4096 cosets a lookahead pass scans.  A check inside either loop
   itself ran 1-1.5% slower over coset_enum's jobs. */
#define SIGNAL_MASK 4095

typedef struct {
    int *table;   /* row c, direction d at table[c * width + d]; -1 is a hole */
    int *parent;  /* union-find over cosets; parent[c] == c when c is live */
    long cap;
    long n;
    long live;
    long total;
    long max_live;
    long max_total;
    long next_lookahead; /* live count at which the main loop looks ahead */
    int width;
    long *queue;  /* pending coincidences, as pairs */
    long qcap;
    long qhead;
    long qtail;
} State;

/* Words flattened: word k is data[off[k]] .. data[off[k + 1] - 1]. */
typedef struct {
    int *data;
    long *off;
    long count;
} Words;

static inline long find(State *st, long x)
{
    while (st->parent[x] != x) {
        st->parent[x] = st->parent[st->parent[x]];
        x = st->parent[x];
    }
    return x;
}

static int qpush(State *st, long a, long b)
{
    if (st->qtail + 2 > st->qcap) {
        long used = st->qtail - st->qhead;
        if (st->qhead >= st->qcap / 2) {
            memmove(st->queue, st->queue + st->qhead, used * sizeof(long));
            st->qhead = 0;
            st->qtail = used;
        }
        else {
            long *nq = realloc(st->queue, st->qcap * 2 * sizeof(long));
            if (nq == NULL)
                return NOMEM;
            st->queue = nq;
            st->qcap *= 2;
        }
    }
    st->queue[st->qtail] = a;
    st->queue[st->qtail + 1] = b;
    st->qtail += 2;
    return 0;
}

static int coincide(State *st, long a, long b)
{
    st->qhead = 0;
    st->qtail = 0;
    if (qpush(st, a, b) < 0)
        return NOMEM;
    while (st->qhead < st->qtail) {
        long x = find(st, st->queue[st->qhead]);
        long y = find(st, st->queue[st->qhead + 1]);
        st->qhead += 2;
        if (x == y)
            continue;
        if (x > y) {
            long tmp = x;
            x = y;
            y = tmp;
        }
        st->parent[y] = (int)x;
        st->live -= 1;
        int *rx = st->table + x * st->width;
        int *ry = st->table + y * st->width;
        for (int d = 0; d < st->width; d++) {
            long t = ry[d];
            if (t == -1)
                continue;
            if (rx[d] == -1)
                rx[d] = (int)t;
            else if (qpush(st, rx[d], t) < 0)
                return NOMEM;
        }
    }
    return 0;
}

static int grow(State *st)
{
    if (st->n < st->cap)
        return 0;
    long newcap = st->cap * 2;
    /* Coset numbers are stored as int. */
    if (newcap > INT_MAX)
        return NOMEM;
    int *nt = realloc(st->table, newcap * st->width * sizeof(int) + 1);
    if (nt == NULL)
        return NOMEM;
    st->table = nt;
    int *np = realloc(st->parent, newcap * sizeof(int));
    if (np == NULL)
        return NOMEM;
    st->parent = np;
    st->cap = newcap;
    return 0;
}

static long define(State *st, long at, int d)
{
    if (st->live >= st->max_live || st->total >= st->max_total)
        return EXHAUSTED;
    if ((st->total & SIGNAL_MASK) == 0 && PyErr_CheckSignals() < 0)
        return SIGNALED;
    if (grow(st) < 0)
        return NOMEM;
    long new = st->n;
    st->n += 1;
    int *row = st->table + new * st->width;
    for (int i = 0; i < st->width; i++)
        row[i] = -1;
    st->parent[new] = (int)new;
    st->live += 1;
    st->total += 1;
    st->table[at * st->width + d] = (int)new;
    row[d ^ 1] = (int)at;
    return new;
}

static int scan(State *st, long c, const int *word, long n, int fill)
{
    if (n == 0)
        return 0;
    long f = c, b = c, i = 0, j = n - 1;
    for (;;) {
        while (i <= j) {
            long t = st->table[f * st->width + word[i]];
            if (t == -1)
                break;
            f = find(st, t);
            i += 1;
        }
        if (i > j) {
            if (f != b)
                return coincide(st, f, b);
            return 0;
        }
        while (j >= i) {
            long t = st->table[b * st->width + (word[j] ^ 1)];
            if (t == -1)
                break;
            b = find(st, t);
            j -= 1;
        }
        if (j < i)
            return coincide(st, f, b);
        if (i == j) {
            int d = word[i];
            st->table[f * st->width + d] = (int)b;
            st->table[b * st->width + (d ^ 1)] = (int)f;
            return 0;
        }
        if (!fill)
            return 0;
        long new = define(st, f, word[i]);
        if (new < 0)
            return (int)new;
        f = new;
        i += 1;
    }
}

static int scan_word(State *st, long c, const Words *w, long k, int fill)
{
    return scan(st, c, w->data + w->off[k], w->off[k + 1] - w->off[k], fill);
}

/* Scan every relator without fill at each live coset from start on. */
static int lookahead(State *st, const Words *rels, long start)
{
    /* A pass defines no coset, so st->n stays fixed. */
    for (long block = start; block < st->n; block += SIGNAL_MASK + 1) {
        if (PyErr_CheckSignals() < 0)
            return SIGNALED;
        long end = block + SIGNAL_MASK + 1 < st->n ? block + SIGNAL_MASK + 1 : st->n;
        for (long x = block; x < end; x++) {
            if (st->parent[x] != x)
                continue;
            for (long j = 0; j < rels->count; j++) {
                int status = scan_word(st, x, rels, j, 0);
                if (status < 0)
                    return status;
                if (st->parent[x] != x)
                    break;
            }
        }
    }
    st->next_lookahead = 8 * st->live;
    return 0;
}

static int process_coset(State *st, long c, const Words *rels)
{
    if (st->parent[c] != c)
        return 0;
    for (long j = 0; j < rels->count; j++) {
        int status = scan_word(st, c, rels, j, 1);
        if (status < 0)
            return status;
        if (st->parent[c] != c)
            return 0;
    }
    for (int d = 0; d < st->width; d++) {
        if (st->table[c * st->width + d] == -1) {
            long res = define(st, c, d);
            if (res < 0)
                return (int)res;
        }
    }
    return 0;
}

static int retry_slack(State *st)
{
    long slack = st->max_live / 20;
    if (slack < 1)
        slack = 1;
    return st->max_live - st->live >= slack;
}

/* Drop dead rows, renumbering live cosets in order.  Returns the new index
   of the main-loop position (the count of live cosets below it). */
static long compact(State *st, long pos)
{
    long w = st->width, k = 0, newpos = 0;
    for (long c = 0; c < st->n; c++)
        st->parent[c] = (int)find(st, c);
    int *remap = malloc(st->n * sizeof(int) + 1);
    if (remap == NULL)
        return NOMEM;
    for (long c = 0; c < st->n; c++) {
        if (c == pos)
            newpos = k;
        if (st->parent[c] == c)
            remap[c] = (int)k++;
    }
    if (pos >= st->n)
        newpos = k;
    for (long c = 0; c < st->n; c++) {
        if (st->parent[c] != c)
            continue;
        int *src = st->table + c * w;
        int *dst = st->table + (long)remap[c] * w;
        for (int d = 0; d < st->width; d++)
            dst[d] = src[d] == -1 ? -1 : remap[st->parent[src[d]]];
    }
    st->n = k;
    for (long c = 0; c < k; c++)
        st->parent[c] = (int)c;
    free(remap);
    return newpos;
}

/* Run step (the subgroup word k, or coset c's relator scans) to completion,
   inserting lookahead passes from c on while they keep recovering a usable
   slice of the budget. */
static int with_lookahead(State *st, const Words *rels, const Words *subs, long k, long c)
{
    for (;;) {
        int status = subs != NULL
            ? scan_word(st, find(st, 0), subs, k, 1)
            : process_coset(st, c, rels);
        if (status != EXHAUSTED || st->total >= st->max_total)
            return status;
        status = lookahead(st, rels, c);
        if (status < 0)
            return status;
        if (!retry_slack(st))
            return EXHAUSTED;
    }
}

static int enumerate(State *st, const Words *rels, const Words *subs)
{
    int status = 0;
    for (long k = 0; status == 0 && k < subs->count; k++)
        status = with_lookahead(st, rels, subs, k, 0);
    for (long c = 0; status == 0 && c < st->n; c++) {
        if (st->n >= 4096 && st->n - st->live > st->n / 2) {
            c = compact(st, c);
            if (c < 0)
                return NOMEM;
            /* Every coset from the old position on was dead. */
            if (c == st->n)
                break;
        }
        if (st->parent[c] == c && st->live >= st->next_lookahead)
            status = lookahead(st, rels, c);
        if (status == 0)
            status = with_lookahead(st, rels, NULL, 0, c);
    }
    if (status == 0 && compact(st, st->n) < 0)
        return NOMEM;
    return status;
}

/* Flatten a sequence of words of directions into w, checking that every
   direction is an int in [0, width).  Returns 0, or -1 with an exception
   set; the caller frees w's buffers either way. */
static int load_words(PyObject *words, int width, Words *w)
{
    PyObject *outer = PySequence_Fast(words, "expected a sequence of words");
    if (outer == NULL)
        return -1;
    Py_ssize_t count = PySequence_Fast_GET_SIZE(outer);
    long cap = 64, used = 0;
    w->count = count;
    w->off = malloc((count + 1) * sizeof(long));
    w->data = malloc(cap * sizeof(int));
    if (w->off == NULL || w->data == NULL) {
        PyErr_NoMemory();
        goto fail;
    }
    for (Py_ssize_t k = 0; k < count; k++) {
        PyObject *word = PySequence_Fast(PySequence_Fast_GET_ITEM(outer, k),
                                         "a word must be a sequence of directions");
        if (word == NULL)
            goto fail;
        Py_ssize_t len = PySequence_Fast_GET_SIZE(word);
        if (used + len > cap) {
            while (used + len > cap)
                cap *= 2;
            int *nd = realloc(w->data, cap * sizeof(int));
            if (nd == NULL) {
                Py_DECREF(word);
                PyErr_NoMemory();
                goto fail;
            }
            w->data = nd;
        }
        w->off[k] = used;
        for (Py_ssize_t i = 0; i < len; i++) {
            int overflow;
            long d = PyLong_AsLongAndOverflow(PySequence_Fast_GET_ITEM(word, i), &overflow);
            if (d == -1 && PyErr_Occurred()) {
                Py_DECREF(word);
                goto fail;
            }
            if (overflow || d < 0 || d >= width) {
                PyErr_Format(PyExc_ValueError,
                             "direction out of range [0, %d) in word %zd", width, k);
                Py_DECREF(word);
                goto fail;
            }
            w->data[used++] = (int)d;
        }
        Py_DECREF(word);
    }
    w->off[count] = used;
    Py_DECREF(outer);
    return 0;
fail:
    Py_DECREF(outer);
    return -1;
}

/* The closed table as a list of row tuples.  Each coset number is one int
   object shared by every cell that holds it. */
static PyObject *build_rows(const State *st)
{
    PyObject **nums = PyMem_Calloc(st->n + 1, sizeof(PyObject *));
    PyObject *rows = NULL;
    if (nums == NULL)
        return PyErr_NoMemory();
    for (long c = 0; c < st->n; c++) {
        if ((nums[c] = PyLong_FromLong(c)) == NULL)
            goto done;
    }
    rows = PyList_New(st->n);
    for (long c = 0; rows != NULL && c < st->n; c++) {
        PyObject *row = PyTuple_New(st->width);
        if (row == NULL) {
            Py_CLEAR(rows);
            break;
        }
        PyList_SET_ITEM(rows, c, row);
        for (int d = 0; d < st->width; d++) {
            int t = st->table[c * st->width + d];
            if (t < 0 || t >= st->n) {
                PyErr_SetString(PyExc_RuntimeError, "coset table is not complete");
                Py_CLEAR(rows);
                break;
            }
            Py_INCREF(nums[t]);
            PyTuple_SET_ITEM(row, d, nums[t]);
        }
    }
done:
    for (long c = 0; c < st->n; c++)
        Py_XDECREF(nums[c]);
    PyMem_Free(nums);
    return rows;
}

static PyObject *run(PyObject *Py_UNUSED(self), PyObject *args)
{
    long num_gens;
    PyObject *relators, *subgroup, *budget;
    if (!PyArg_ParseTuple(args, "lOOO:run", &num_gens, &relators, &subgroup, &budget))
        return NULL;
    if (num_gens < 0 || num_gens > INT_MAX / 2)
        return PyErr_Format(PyExc_ValueError, "num_gens out of range: %ld", num_gens);
    int overflow;
    long max_live = PyLong_AsLongAndOverflow(budget, &overflow);
    if (max_live == -1 && PyErr_Occurred())
        return NULL;
    if (overflow)
        max_live = overflow > 0 ? LONG_MAX : LONG_MIN;

    int width = 2 * (int)num_gens;
    Words rels = {NULL, NULL, 0}, subs = {NULL, NULL, 0};
    State st = {0};
    PyObject *result = NULL;
    if (load_words(relators, width, &rels) < 0 || load_words(subgroup, width, &subs) < 0)
        goto done;

    st.width = width;
    st.cap = 256;
    st.n = 1;
    st.live = 1;
    st.total = 1;
    st.max_live = max_live;
    st.next_lookahead = 64;
    /* 1000 * max_live without overflow; a budget below one stops at once. */
    st.max_total = max_live > LONG_MAX / 1000 ? LONG_MAX : max_live < 0 ? 0 : 1000 * max_live;
    st.table = malloc(st.cap * width * sizeof(int) + 1);
    st.parent = malloc(st.cap * sizeof(int));
    st.queue = malloc(64 * sizeof(long));
    st.qcap = 64;
    if (st.table == NULL || st.parent == NULL || st.queue == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (int d = 0; d < width; d++)
        st.table[d] = -1;
    st.parent[0] = 0;

    int status = enumerate(&st, &rels, &subs);
    if (status == SIGNALED)
        goto done;
    if (status == NOMEM) {
        PyErr_NoMemory();
        goto done;
    }
    if (status == EXHAUSTED) {
        result = Py_BuildValue("OlO", Py_False, st.live, Py_None);
        goto done;
    }
    PyObject *rows = build_rows(&st);
    if (rows != NULL)
        result = Py_BuildValue("OlN", Py_True, st.n, rows);

done:
    free(st.table);
    free(st.parent);
    free(st.queue);
    free(rels.data);
    free(rels.off);
    free(subs.data);
    free(subs.off);
    return result;
}

static PyMethodDef methods[] = {
    {"run", run, METH_VARARGS,
     "run(num_gens, relators, subgroup, max_live) -> (closed, count, rows)\n\n"
     "count is the index if closed, else the number of live cosets when\n"
     "enumeration gave up.  rows is a list of row tuples, or None."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_coset_speedup",
    .m_doc = "Compiled coset enumeration kernel; see knotpres._coset_py.",
    .m_size = 0,
    .m_methods = methods,
};

PyMODINIT_FUNC PyInit__coset_speedup(void)
{
    return PyModuleDef_Init(&module);
}
