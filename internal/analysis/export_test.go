package analysis

// Resolved returns the unit's memoized resolution, nil before the first
// Resolution call.
func Resolved(u *Unit) *Resolution { return u.res }
