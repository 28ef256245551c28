/* gcc extension spellings, as glibc's headers use them: see golden.txt. */

/* __extension__ before an external declaration. */
__extension__ typedef unsigned long long u64;

struct counters {
	int hits;
	/* __extension__ before a struct member declaration. */
	__extension__ u64 total;
};

static __inline__ u64 widen(__const int v)
{
	/* __extension__ before a block-scope declaration. */
	__extension__ long long w = v;
#ifdef CONFIG_WIDE
	/* __extension__ before a cast expression. */
	return __extension__ (u64)w << 32;
#else
	return (u64)w;
#endif
}

__volatile__ int ready;
