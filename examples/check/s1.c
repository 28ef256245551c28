/* superc -check example, unit 1 of 2: see s2.c and golden.txt. */

/* Unit-internal: s2.c's counter is a different object. */
static int counter = 0;

/* External, and s2.c defines it too when CONFIG_BIG is on. */
#ifdef CONFIG_FAST
int shared_limit = 64;
#endif

/* Defined twice in this unit when CONFIG_X and CONFIG_Y are both on. */
#ifdef CONFIG_X
int mode = 1;
#endif
#ifdef CONFIG_Y
int mode = 2;
#endif

int bump(void)
{
	return ++counter;
}
