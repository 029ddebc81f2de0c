//go:build !debug && !race

package obs

// OwnerGuardEnabled reports whether the single-owner guard is compiled in.
// Release builds keep the hot emit path free of any ownership bookkeeping;
// build with `-tags debug` (or `-race`) to enable the guard.
const OwnerGuardEnabled = false

// owner is the release-build stub of the single-owner guard: a zero-size
// field whose methods are empty and inline away, so Emit and instrument
// resolution pay nothing for the debug-build feature.
type owner struct{}

func (o *owner) bind()        {}
func (o *owner) unbind()      {}
func (o *owner) check(string) {}
