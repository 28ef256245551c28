/* A stray '@' is a parse error, as in gcc, not a declared name. */
int fine;
int @;
