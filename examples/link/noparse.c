/* A unit no configuration parses (the return lacks its semicolon): clint
 * reports it once on stderr, exits 1, and joins no link facts for it, so
 * `clint -link -stats a.c b.c noparse.c` counts the same units in-process
 * and via -daemon.
 */
int f(void) { return 2 }
