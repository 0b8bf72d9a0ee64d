package service

// The fixed request limits, for tests that probe one past them.
const (
	MaxBodyBytes    = maxBodyBytes
	MaxBatchMembers = maxBatchMembers
)

// FollowStore exposes one store-follower tick to the tests that drive it
// without the ticker goroutine: the fault table in follow_test.go, the
// lifecycle and publish tests and the parallel stress test.
func (s *Server) FollowStore() func() { return s.followStore() }
