/* Compiled Tietze consequence search.

   A port of presentations._consequence_search, with the same arguments
   and results: a bounded BFS over products of conjugated-relator blocks,
   one level per product.  It keeps the reference's rules exactly: blocks
   may repeat or be empty, and of equal blocks the earliest is kept while
   empty ones are skipped; a level's words are expanded in the order they
   were found, a word is kept only the first time it is formed, the seam
   between a word and a block is walked only when the block's first letter
   cancels the word's last, and the last level of a search with a goal is
   one lookup per parent among the blocks.  Without a goal it returns the
   add-relator neighbors, sorted by length and then by letters as the
   reference's sort leaves them, so both kernels return identical lists.

   Every word lives once, in one arena of C int letters that grows by
   doubling, as a node that records its parent word and the block that
   formed it; a candidate is written at the arena's end and kept only if
   the open-addressing hash set of words does not hold it yet.  The
   distinct nonempty blocks are a second such set, loaded once per search,
   whose node b is block b; the last-level lookup reads it.  Buffers grow
   with the words actually formed, never with the budget's caps, and the
   caps and counts saturate rather than overflow, so a budget field of
   10**30 costs what a saturating one does.  Certificates are built as
   entry tuples only for the words returned.

   The additions are ordered by one bottom-up merge sort of (length,
   letters, node) keys, with the comparison inlined.  Each neighbor is
   built here, straight from the arena and the node records, as the
   reference builds it: the letter tuple, the entries tuple, a Word, an
   IdentitySequence, a TietzeMove, the relator tuple, a Presentation and
   their pair, each written once into the list returned.
   The four classes come as an argument, and the module keeps no state.
   The plain classes' instances are allocated as object.__new__ does and
   their slots written at the offsets their member descriptors give; the
   named tuples are allocated as tuple.__new__ does.  A class that cannot
   be built that way is refused with TypeError before the search.

   Letters must be nonzero and fit in a C int; a letter of a presentation's
   word is at most its number of generators.  The search checks for signals
   every few thousand products and every few thousand neighbors built, so
   Ctrl-C stops it as it stops the Python loop.  Every step that can fail
   returns 0 on success and -1 with an exception set, MemoryError for any
   failed allocation. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <limits.h>
#include <stdint.h>
#include <string.h>

#ifndef Py_T_OBJECT_EX  /* public under these names since Python 3.12 */
#include <structmember.h>
#define Py_T_OBJECT_EX T_OBJECT_EX
#define Py_READONLY READONLY
#endif

#define SIGNAL_MASK 4095  /* check for signals once per 4096 products or neighbors */

typedef struct {
    const int *body;  /* in the block set's arena */
    Py_ssize_t len;
    int head;         /* the last letter of a word that cancels body[0] */
    PyObject *entry;  /* borrowed from a pair that the search's tuple holds */
} Block;

typedef struct {
    Py_ssize_t at;      /* its letters start at letters[at] */
    Py_ssize_t len;
    Py_ssize_t parent;  /* the word it was formed from; -1 for the empty word */
    Py_ssize_t block;   /* the block that formed it */
    uint64_t hash;
} Node;

typedef struct {
    int *letters;       /* every kept word's letters, back to back */
    Py_ssize_t used;
    Py_ssize_t cap;
    Node *nodes;        /* in the order the words were found */
    Py_ssize_t n;
    Py_ssize_t ncap;
    Py_ssize_t *slots;  /* hash set of node indices; -1 is a hole */
    Py_ssize_t mask;    /* slot count - 1, a power of two minus one */
} Words;

static Py_ssize_t sat_add(Py_ssize_t a, Py_ssize_t b)
{
    return a > PY_SSIZE_T_MAX - b ? PY_SSIZE_T_MAX : a + b;
}

static uint64_t hash_letters(const int *w, Py_ssize_t n)
{
    uint64_t h = 0xcbf29ce484222325ULL ^ (uint64_t)n;
    for (Py_ssize_t i = 0; i < n; i++)
        h = (h ^ (uint32_t)w[i]) * 0x100000001b3ULL;
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    return h ^ (h >> 33);
}

/* Room for `count` more items of `size` bytes in *buf of *cap items, of
   which `used` are in use; the capacity at least doubles when it grows. */
static int reserve(void **buf, Py_ssize_t *cap, Py_ssize_t used, Py_ssize_t count, size_t size)
{
    if (count <= *cap - used)
        return 0;
    Py_ssize_t limit = PY_SSIZE_T_MAX / (Py_ssize_t)size;
    if (count > limit - used) {
        PyErr_NoMemory();
        return -1;
    }
    Py_ssize_t want = *cap > limit / 2 ? limit : 2 * *cap;
    if (want < used + count)
        want = used + count;
    if (want < 16)
        want = 16;
    void *grown = PyMem_Realloc(*buf, (size_t)want * size);
    if (grown == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    *buf = grown;
    *cap = want;
    return 0;
}

/* The slot of the word w of n letters and hash h: its node's, or the hole
   where it would go. */
static Py_ssize_t *find_slot(const Words *ws, const int *w, Py_ssize_t n, uint64_t h)
{
    Py_ssize_t i = (Py_ssize_t)(h & (uint64_t)ws->mask);
    for (;;) {
        Py_ssize_t k = ws->slots[i];
        if (k < 0)
            return &ws->slots[i];
        const Node *nd = &ws->nodes[k];
        if (nd->hash == h && nd->len == n
            && memcmp(ws->letters + nd->at, w, (size_t)n * sizeof(int)) == 0)
            return &ws->slots[i];
        i = (i + 1) & ws->mask;
    }
}

/* An empty set of words, or -1 with MemoryError set. */
static int init_words(Words *ws)
{
    ws->mask = 15;
    ws->slots = PyMem_Malloc(16 * sizeof(Py_ssize_t));
    if (ws->slots == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    memset(ws->slots, 0xff, 16 * sizeof(Py_ssize_t));
    return 0;
}

static void free_words(Words *ws)
{
    PyMem_Free(ws->letters);
    PyMem_Free(ws->nodes);
    PyMem_Free(ws->slots);
}

/* Twice the slots, every node placed again. */
static int grow_slots(Words *ws)
{
    Py_ssize_t size = ws->mask + 1;
    if (size > PY_SSIZE_T_MAX / 2 / (Py_ssize_t)sizeof(Py_ssize_t)) {
        PyErr_NoMemory();
        return -1;
    }
    Py_ssize_t *slots = PyMem_Malloc((size_t)(2 * size) * sizeof(Py_ssize_t));
    if (slots == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    memset(slots, 0xff, (size_t)(2 * size) * sizeof(Py_ssize_t));
    PyMem_Free(ws->slots);
    ws->slots = slots;
    ws->mask = 2 * size - 1;
    for (Py_ssize_t k = 0; k < ws->n; k++) {
        Py_ssize_t i = (Py_ssize_t)(ws->nodes[k].hash & (uint64_t)ws->mask);
        while (slots[i] >= 0)
            i = (i + 1) & ws->mask;
        slots[i] = k;
    }
    return 0;
}

/* Keep the word of n letters written at the arena's end, whose hash is h
   and whose hole is slot, as a new node. */
static int keep(Words *ws, Py_ssize_t *slot, Py_ssize_t n, uint64_t h,
                Py_ssize_t parent, Py_ssize_t block)
{
    if (reserve((void **)&ws->nodes, &ws->ncap, ws->n, 1, sizeof(Node)) < 0)
        return -1;
    Node *nd = &ws->nodes[ws->n];
    nd->at = ws->used;
    nd->len = n;
    nd->parent = parent;
    nd->block = block;
    nd->hash = h;
    *slot = ws->n++;
    ws->used += n;
    if (ws->n > ws->mask / 2)
        return grow_slots(ws);
    return 0;
}

/* The letters of seq, a sequence of nonzero ints that fit in a C int,
   written at (*buf)[used], which grows to hold them; *len is set to their
   count.  No Python code runs, so nothing can change seq meanwhile. */
static int load_letters(PyObject *seq, int **buf, Py_ssize_t *cap, Py_ssize_t used,
                        Py_ssize_t *len)
{
    PyObject *fast = PySequence_Fast(seq, "letters must be a sequence of ints");
    if (fast == NULL)
        return -1;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(fast);
    if (reserve((void **)buf, cap, used, n, sizeof(int)) < 0) {
        Py_DECREF(fast);
        return -1;
    }
    PyObject **items = PySequence_Fast_ITEMS(fast);
    for (Py_ssize_t i = 0; i < n; i++) {
        if (!PyLong_Check(items[i])) {
            Py_DECREF(fast);
            PyErr_SetString(PyExc_TypeError, "letters must be ints");
            return -1;
        }
        long k = PyLong_AsLong(items[i]);
        if (k == -1 && PyErr_Occurred()) {
            Py_DECREF(fast);
            return -1;
        }
        if (k == 0 || k > INT_MAX || k < -INT_MAX) {
            Py_DECREF(fast);
            PyErr_Format(PyExc_ValueError, "letter %ld is 0 or does not fit in a C int", k);
            return -1;
        }
        (*buf)[used + i] = (int)k;
    }
    Py_DECREF(fast);
    *len = n;
    return 0;
}

/* The certificate of node k, then `extra` if it is not NULL, as a new
   tuple of entries. */
static PyObject *certificate(const Words *ws, const Block *blocks, Py_ssize_t k,
                             PyObject *extra)
{
    Py_ssize_t depth = extra != NULL;
    for (Py_ssize_t a = k; ws->nodes[a].parent >= 0; a = ws->nodes[a].parent)
        depth++;
    PyObject *out = PyTuple_New(depth);
    if (out == NULL)
        return NULL;
    if (extra != NULL) {
        Py_INCREF(extra);
        PyTuple_SET_ITEM(out, --depth, extra);
    }
    for (Py_ssize_t a = k; ws->nodes[a].parent >= 0; a = ws->nodes[a].parent) {
        PyObject *entry = blocks[ws->nodes[a].block].entry;
        Py_INCREF(entry);
        PyTuple_SET_ITEM(out, --depth, entry);
    }
    return out;
}

/* The letters of a word as a new tuple of ints. */
static PyObject *letters_tuple(const int *w, Py_ssize_t n)
{
    PyObject *out = PyTuple_New(n);
    if (out == NULL)
        return NULL;
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *k = PyLong_FromLong(w[i]);
        if (k == NULL) {
            Py_DECREF(out);
            return NULL;
        }
        PyTuple_SET_ITEM(out, i, k);
    }
    return out;
}

/* The last level of a search with a goal: for each parent w, the block
   that is the reduced w^-1 goal, in which the letters they start with in
   common cancel, found in the block set bs.  Sets *result to the first
   certificate found, or leaves it NULL. */
static int last_lookup(const Words *ws, const Words *bs, const Block *blocks,
                       Py_ssize_t longest, const int *goal, Py_ssize_t goal_len,
                       Py_ssize_t from, Py_ssize_t to, PyObject **result)
{
    int *key = PyMem_Malloc((size_t)(longest ? longest : 1) * sizeof(int));
    int status = -1;
    if (key == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (Py_ssize_t k = from; k < to; k++) {
        const int *w = ws->letters + ws->nodes[k].at;
        Py_ssize_t n = ws->nodes[k].len, c = 0;
        while (c < n && c < goal_len && w[c] == goal[c])
            c++;
        Py_ssize_t len = (n - c) + (goal_len - c);
        if (len > longest)
            continue;  /* longer than every block */
        for (Py_ssize_t i = 0; i < n - c; i++)
            key[i] = -w[n - 1 - i];
        memcpy(key + (n - c), goal + c, (size_t)(goal_len - c) * sizeof(int));
        Py_ssize_t found = *find_slot(bs, key, len, hash_letters(key, len));
        if (found >= 0) {
            *result = certificate(ws, blocks, k, blocks[found].entry);
            status = *result == NULL ? -1 : 0;
            goto done;
        }
    }
    status = 0;
done:
    PyMem_Free(key);
    return status;
}

typedef struct {
    Py_ssize_t len;
    const int *w;
    Py_ssize_t node;
} Key;

/* By length, then by letters as signed ints: the order of the letter
   tuples. */
static inline int key_less(const Key *a, const Key *b)
{
    if (a->len != b->len)
        return a->len < b->len;
    for (Py_ssize_t i = 0; i < a->len; i++) {
        if (a->w[i] != b->w[i])
            return a->w[i] < b->w[i];
    }
    return 0;
}

/* Sorts the n keys by key_less: a bottom-up merge sort through buf, which
   has room for n keys.  With the comparison inlined it sorts the
   benchmark's addition lists in about two thirds of qsort's time. */
static void sort_keys(Key *keys, Key *buf, Py_ssize_t n)
{
    Key *src = keys, *dst = buf;
    for (Py_ssize_t width = 1; width < n; width *= 2) {
        for (Py_ssize_t lo = 0; lo < n; lo += 2 * width) {
            Py_ssize_t mid = lo + width < n ? lo + width : n;
            Py_ssize_t hi = mid + width < n ? mid + width : n;
            Py_ssize_t i = lo, j = mid, k = lo;
            while (i < mid && j < hi)
                dst[k++] = key_less(&src[j], &src[i]) ? src[j++] : src[i++];
            while (i < mid)
                dst[k++] = src[i++];
            while (j < hi)
                dst[k++] = src[j++];
        }
        Key *t = src;
        src = dst;
        dst = t;
    }
    if (src != keys)
        memcpy(keys, src, (size_t)n * sizeof(Key));
}

/* How the neighbors are built: the four classes, as
   (Word, IdentitySequence, TietzeMove, Presentation), and the offsets of
   the object slots the plain classes' instances keep their fields in. */
typedef struct {
    PyTypeObject *word, *sequence, *move, *presentation;
    Py_ssize_t letters, generators, relators;
} Classes;

/* obj.name, looked up by the interned name: the interpreter caches type
   lookups by the name object, so a new string per call would fill its
   cache with entries that are never hit again. */
static PyObject *get_attr(PyObject *obj, const char *name)
{
    PyObject *key = PyUnicode_InternFromString(name);
    PyObject *value = key ? PyObject_GetAttr(obj, key) : NULL;
    Py_XDECREF(key);
    return value;
}

/* The offset of the object slot `name` that instances of cls keep, or -1
   with TypeError set when cls has no such slot. */
static Py_ssize_t slot_offset(PyTypeObject *cls, const char *name)
{
    PyObject *d = get_attr((PyObject *)cls, name);
    Py_ssize_t offset = -1;
    if (d != NULL && Py_IS_TYPE(d, &PyMemberDescr_Type)) {
        PyMemberDef *m = ((PyMemberDescrObject *)d)->d_member;
        if (m->type == Py_T_OBJECT_EX && !(m->flags & Py_READONLY)
            && PyType_IsSubtype(cls, PyDescr_TYPE(d)))
            offset = m->offset;
    }
    Py_XDECREF(d);
    if (d == NULL && !PyErr_ExceptionMatches(PyExc_AttributeError))
        return -1;
    if (offset < 0) {
        PyErr_Clear();
        PyErr_Format(PyExc_TypeError, "%s has no object slot %s", cls->tp_name, name);
    }
    return offset;
}

/* Whether object.__new__ builds instances of cls, as a class with no
   __new__ of its own; TypeError set if not. */
static int plain_class(PyObject *cls)
{
    if (PyType_Check(cls) && ((PyTypeObject *)cls)->tp_new == PyBaseObject_Type.tp_new
        && !(((PyTypeObject *)cls)->tp_flags & Py_TPFLAGS_IS_ABSTRACT))
        return 1;
    PyErr_Format(PyExc_TypeError, "%R is not a class that object.__new__ builds", cls);
    return 0;
}

/* Whether tuple.__new__ builds instances of cls: it refuses, with
   TypeError, what is not a class, not a tuple subclass, or a subclass
   whose own __new__ it may not stand for. */
static int tuple_class(PyObject *cls)
{
    PyObject *new = get_attr((PyObject *)&PyTuple_Type, "__new__");
    PyObject *empty = new ? PyObject_CallOneArg(new, cls) : NULL;
    Py_XDECREF(new);
    Py_XDECREF(empty);
    return empty != NULL;
}

/* The classes argument read into *c, or -1 with TypeError set. */
static int load_classes(PyObject *arg, Classes *c)
{
    if (!PyTuple_Check(arg) || PyTuple_GET_SIZE(arg) != 4) {
        PyErr_SetString(PyExc_TypeError,
                        "classes must be (Word, IdentitySequence, TietzeMove, Presentation)");
        return -1;
    }
    PyObject **items = &PyTuple_GET_ITEM(arg, 0);
    if (!plain_class(items[0]) || !tuple_class(items[1]) || !tuple_class(items[2])
        || !plain_class(items[3]))
        return -1;
    c->word = (PyTypeObject *)items[0];
    c->sequence = (PyTypeObject *)items[1];
    c->move = (PyTypeObject *)items[2];
    c->presentation = (PyTypeObject *)items[3];
    c->letters = slot_offset(c->word, "letters");
    c->generators = c->letters < 0 ? -1 : slot_offset(c->presentation, "generators");
    c->relators = c->generators < 0 ? -1 : slot_offset(c->presentation, "relators");
    return c->relators < 0 ? -1 : 0;
}

#define SLOT(obj, offset) (*(PyObject **)((char *)(obj) + (offset)))

/* A new instance of a tuple subclass with room for n items, as
   tuple.__new__ allocates it. */
static PyObject *new_tuple(PyTypeObject *cls, Py_ssize_t n)
{
    PyObject *t = cls->tp_alloc(cls, n);
#if PY_VERSION_HEX >= 0x030E0000
    if (t != NULL)
        ((PyTupleObject *)t)->ob_hash = -1;  /* the hash it caches, not known yet */
#endif
    return t;
}

/* The neighbor that adds the word w of n letters, kept as node k, to the
   relators: a new pair (presentation, move), built as the reference
   kernel builds it. */
static PyObject *neighbor(const Words *ws, const Block *blocks, const Classes *c,
                          const int *w, Py_ssize_t n, Py_ssize_t k, PyObject *kind,
                          PyObject *generators, PyObject *relators)
{
    PyObject *move = NULL, *rels = NULL, *q = NULL;
    PyObject *letters = letters_tuple(w, n);
    PyObject *word = letters ? c->word->tp_alloc(c->word, 0) : NULL;
    if (word == NULL) {
        Py_XDECREF(letters);
        return NULL;
    }
    SLOT(word, c->letters) = letters;
    PyObject *entries = certificate(ws, blocks, k, NULL);
    PyObject *cert = entries ? new_tuple(c->sequence, 1) : NULL;
    if (cert == NULL) {
        Py_XDECREF(entries);
        goto fail;
    }
    PyTuple_SET_ITEM(cert, 0, entries);
    move = new_tuple(c->move, 6);
    if (move == NULL) {
        Py_DECREF(cert);
        goto fail;
    }
    PyTuple_SET_ITEM(move, 0, Py_NewRef(kind));
    for (int i = 1; i < 4; i++)
        PyTuple_SET_ITEM(move, i, Py_NewRef(Py_None));
    PyTuple_SET_ITEM(move, 4, Py_NewRef(word));
    PyTuple_SET_ITEM(move, 5, cert);
    Py_ssize_t nrels = PyTuple_GET_SIZE(relators);
    rels = PyTuple_New(nrels + 1);
    if (rels == NULL)
        goto fail;
    for (Py_ssize_t i = 0; i < nrels; i++)
        PyTuple_SET_ITEM(rels, i, Py_NewRef(PyTuple_GET_ITEM(relators, i)));
    PyTuple_SET_ITEM(rels, nrels, word);
    word = NULL;
    q = c->presentation->tp_alloc(c->presentation, 0);
    if (q == NULL)
        goto fail;
    SLOT(q, c->generators) = Py_NewRef(generators);
    SLOT(q, c->relators) = rels;
    rels = NULL;
    PyObject *pair = PyTuple_New(2);
    if (pair == NULL)
        goto fail;
    PyTuple_SET_ITEM(pair, 0, q);
    PyTuple_SET_ITEM(pair, 1, move);
    return pair;
fail:
    Py_XDECREF(word);
    Py_XDECREF(move);
    Py_XDECREF(rels);
    Py_XDECREF(q);
    return NULL;
}

/* The add-relator neighbors of the presentation with these generators and
   relators: a list of (presentation, move) pairs, one for each kept
   nonempty word of at most max_len letters, sorted by length and then by
   letters. */
static PyObject *neighbors(const Words *ws, const Block *blocks, Py_ssize_t max_len,
                           const Classes *c, PyObject *generators, PyObject *relators)
{
    Py_ssize_t count = 0;
    for (Py_ssize_t k = 1; k < ws->n; k++)
        count += ws->nodes[k].len <= max_len;
    if (count > PY_SSIZE_T_MAX / (Py_ssize_t)sizeof(Key))
        return PyErr_NoMemory();
    Key *keys = PyMem_Malloc((size_t)(count ? count : 1) * sizeof(Key));
    Key *buf = PyMem_Malloc((size_t)(count ? count : 1) * sizeof(Key));
    if (keys == NULL || buf == NULL) {
        PyMem_Free(keys);
        PyMem_Free(buf);
        return PyErr_NoMemory();
    }
    Py_ssize_t m = 0;
    for (Py_ssize_t k = 1; k < ws->n; k++) {
        const Node *nd = &ws->nodes[k];
        if (nd->len <= max_len) {
            keys[m].len = nd->len;
            keys[m].w = ws->letters + nd->at;
            keys[m].node = k;
            m++;
        }
    }
    sort_keys(keys, buf, count);
    PyMem_Free(buf);  /* before the objects are built, to keep the peak down */
    PyObject *kind = PyUnicode_FromString("add-relator");
    PyObject *out = kind ? PyList_New(count) : NULL;
    for (Py_ssize_t i = 0; out != NULL && i < count; i++) {
        if ((i & SIGNAL_MASK) == SIGNAL_MASK && PyErr_CheckSignals() < 0) {
            Py_CLEAR(out);
            break;
        }
        PyObject *pair = neighbor(ws, blocks, c, keys[i].w, keys[i].len, keys[i].node, kind,
                                  generators, relators);
        if (pair == NULL) {
            Py_CLEAR(out);
            break;
        }
        PyList_SET_ITEM(out, i, pair);
    }
    Py_XDECREF(kind);
    PyMem_Free(keys);
    return out;
}

/* A count argument: an index of 0 or more, clipped to PY_SSIZE_T_MAX. */
static int load_count(PyObject *obj, const char *name, Py_ssize_t *out)
{
    Py_ssize_t v = PyNumber_AsSsize_t(obj, NULL);
    if (v == -1 && PyErr_Occurred())
        return -1;
    if (v < 0) {
        PyErr_Format(PyExc_ValueError, "%s must be at least 0", name);
        return -1;
    }
    *out = v;
    return 0;
}

static PyObject *search(PyObject *Py_UNUSED(self), PyObject *args)
{
    PyObject *blocks_arg, *products_arg, *relator_len_arg, *goal_arg, *p, *classes_arg;
    if (!PyArg_ParseTuple(args, "OOOOOO:search", &blocks_arg, &products_arg,
                          &relator_len_arg, &goal_arg, &p, &classes_arg))
        return NULL;
    Py_ssize_t last, max_len;
    if (load_count(products_arg, "max_products", &last) < 0
        || load_count(relator_len_arg, "max_relator_len", &max_len) < 0)
        return NULL;
    /* a tuple of the blocks, which a signal handler cannot change */
    PyObject *seq = PySequence_Tuple(blocks_arg);
    if (seq == NULL)
        return NULL;

    Py_ssize_t nitems = PyTuple_GET_SIZE(seq);
    int *goal = NULL;
    Py_ssize_t goal_cap = 0, goal_len;
    Block *blocks = PyMem_Malloc((size_t)(nitems ? nitems : 1) * sizeof(Block));
    Words bs = {0}, ws = {0};
    Classes classes = {0};
    PyObject *result = NULL, *generators = NULL, *relators = NULL;
    if (blocks == NULL) {
        PyErr_NoMemory();
        goto done;
    }

    /* Each block's letters are written at the end of the block set's arena
       and kept as its next node, unless they are empty (an empty body leaves
       every word as it is) or an earlier block has them.  The arena may move
       as it grows, so the bodies are pointed to only once all are in. */
    if (init_words(&bs) < 0)
        goto done;
    Py_ssize_t longest = 0;
    for (Py_ssize_t i = 0; i < nitems; i++) {
        PyObject *pair = PyTuple_GET_ITEM(seq, i);
        if (!PyTuple_Check(pair) || PyTuple_GET_SIZE(pair) != 2) {
            PyErr_SetString(PyExc_TypeError, "each block must be a pair (letters, entry)");
            goto done;
        }
        Py_ssize_t len;
        if (load_letters(PyTuple_GET_ITEM(pair, 0), &bs.letters, &bs.cap, bs.used, &len) < 0)
            goto done;
        if (len == 0)
            continue;
        uint64_t h = hash_letters(bs.letters + bs.used, len);
        Py_ssize_t *slot = find_slot(&bs, bs.letters + bs.used, len, h);
        if (*slot >= 0)
            continue;
        blocks[bs.n].entry = PyTuple_GET_ITEM(pair, 1);
        if (keep(&bs, slot, len, h, -1, bs.n) < 0)
            goto done;
        if (len > longest)
            longest = len;
    }
    Py_ssize_t nblocks = bs.n;
    for (Py_ssize_t b = 0; b < nblocks; b++) {
        blocks[b].body = bs.letters + bs.nodes[b].at;
        blocks[b].len = bs.nodes[b].len;
        blocks[b].head = -blocks[b].body[0];
    }
    if (load_letters(goal_arg, &goal, &goal_cap, 0, &goal_len) < 0)
        goto done;
    if (goal_len == 0) {
        /* what the neighbors are built from, refused before the search */
        if (load_classes(classes_arg, &classes) < 0)
            goto done;
        generators = get_attr(p, "generators");
        relators = generators ? get_attr(p, "relators") : NULL;
        if (relators == NULL)
            goto done;
        if (!PyTuple_Check(relators)) {
            PyErr_SetString(PyExc_TypeError, "relators must be a tuple");
            goto done;
        }
    }

    /* the empty word, found from the start */
    if (init_words(&ws) < 0)
        goto done;
    uint64_t h0 = hash_letters(NULL, 0);
    if (keep(&ws, find_slot(&ws, NULL, 0, h0), 0, h0, -1, -1) < 0)
        goto done;

    Py_ssize_t cap = sat_add(max_len > goal_len ? max_len : goal_len, longest);
    Py_ssize_t from = 0, to = 1, depth = 0;
    unsigned long products = 0;
    while (from < to && depth != last) {
        depth++;  /* of the children */
        if (depth == last) {
            if (goal_len) {
                if (last_lookup(&ws, &bs, blocks, longest, goal, goal_len, from, to, &result) < 0)
                    goto done;
                if (result == NULL)
                    result = Py_NewRef(Py_None);
                goto done;
            }
            cap = max_len;  /* a longer last-level word is never used */
        }
        Py_ssize_t start = ws.n;
        for (Py_ssize_t k = from; k < to; k++) {
            Py_ssize_t len = ws.nodes[k].len;
            Py_ssize_t room = cap - len;
            for (Py_ssize_t b = 0; b < nblocks; b++) {
                const Block *bl = &blocks[b];
                if ((++products & SIGNAL_MASK) == 0 && PyErr_CheckSignals() < 0)
                    goto done;
                /* the new word is at most len + bl->len letters, written at
                   the arena's end; the arena may move, so w is found after */
                if (reserve((void **)&ws.letters, &ws.cap, ws.used, len + bl->len, sizeof(int)) < 0)
                    goto done;
                const int *w = ws.letters + ws.nodes[k].at;
                int *nw = ws.letters + ws.used;
                Py_ssize_t n;
                if (len && bl->head == w[len - 1]) {
                    /* w * body cancels at the seam (both are reduced) */
                    Py_ssize_t i = len - 1, j = 1;
                    while (i && j < bl->len && w[i - 1] == -bl->body[j]) {
                        i--;
                        j++;
                    }
                    n = i + bl->len - j;
                    if (n > cap)
                        continue;
                    memcpy(nw, w, (size_t)i * sizeof(int));
                    memcpy(nw + i, bl->body + j, (size_t)(bl->len - j) * sizeof(int));
                } else if (bl->len > room) {
                    continue;
                } else {
                    n = len + bl->len;
                    memcpy(nw, w, (size_t)len * sizeof(int));
                    memcpy(nw + len, bl->body, (size_t)bl->len * sizeof(int));
                }
                uint64_t h = hash_letters(nw, n);
                Py_ssize_t *slot = find_slot(&ws, nw, n, h);
                if (*slot >= 0)
                    continue;
                if (keep(&ws, slot, n, h, k, b) < 0)
                    goto done;
                if (n == goal_len && goal_len && memcmp(nw, goal, (size_t)n * sizeof(int)) == 0) {
                    result = certificate(&ws, blocks, ws.n - 1, NULL);
                    goto done;
                }
            }
        }
        if (depth != last) {
            from = start;  /* this level's new words, in order */
            to = ws.n;
        }
    }
    if (goal_len) {
        result = Py_NewRef(Py_None);
    } else {
        PyMem_Free(ws.slots);  /* no word is looked up again */
        ws.slots = NULL;
        result = neighbors(&ws, blocks, max_len, &classes, generators, relators);
    }

done:
    Py_DECREF(seq);
    Py_XDECREF(generators);
    Py_XDECREF(relators);
    PyMem_Free(blocks);
    PyMem_Free(goal);
    free_words(&bs);
    free_words(&ws);
    return result;
}

static PyMethodDef methods[] = {
    {"search", search, METH_VARARGS,
     "search(blocks, max_products, max_relator_len, goal, p, classes)\n\n"
     "blocks are (letters, entry) pairs, which may repeat or be empty: of equal\n"
     "blocks the earliest is kept, and empty ones are skipped.  goal is a letter\n"
     "tuple, or () for none.  With a goal, returns the certificate entries of the\n"
     "first path to it, or None, and does not read p or classes.  Without one,\n"
     "returns the list of p's add-relator neighbors, (presentation, move) pairs\n"
     "for every reachable nonempty word of at most max_relator_len letters, by\n"
     "length and then by letters, made from classes:\n"
     "(Word, IdentitySequence, TietzeMove, Presentation)."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_tietze_speedup",
    .m_doc = "Compiled Tietze consequence search; see knotpres.presentations._consequence_search.",
    .m_size = 0,
    .m_methods = methods,
};

PyMODINIT_FUNC PyInit__tietze_speedup(void)
{
    return PyModuleDef_Init(&module);
}
