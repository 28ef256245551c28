/* superc -check example, unit 2 of 2: see s1.c and golden.txt. */

static int counter = 10;

#ifdef CONFIG_BIG
int shared_limit = 4096;
#endif

int peek(void)
{
	return counter;
}
