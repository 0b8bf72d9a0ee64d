package service

// The fixed request limits, for tests that probe one past them.
const (
	MaxBodyBytes    = maxBodyBytes
	MaxBatchMembers = maxBatchMembers
)

// FollowStore exposes one store-follower tick to the fault table in
// follow_test.go, which drives it without the ticker goroutine.
func (s *Server) FollowStore() func() { return s.followStore() }
