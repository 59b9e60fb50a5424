// Package ctxbg exercises the ctxbg analyzer: context.Background() is
// banned in internal/* library code unless the site carries a suppression
// explaining why a detached context is correct there.
package ctxbg

import "context"

// Bad detaches from the caller's cancellation.
func Bad() context.Context {
	return context.Background() // want `ctxbg: context\.Background\(\) in library code: thread the caller's context instead`
}

// Good threads the caller's context.
func Good(ctx context.Context) (context.Context, context.CancelFunc) {
	return context.WithCancel(ctx)
}

// Sanctioned is an annotated site: the suppression records the decision
// next to the code.
func Sanctioned() context.Context {
	//l2qvet:ignore ctxbg fixture: this signature has no ctx parameter
	return context.Background()
}
