package campaignd

// JournalWrites sums the shard-journal writes of campaign id.
func JournalWrites(s *Server, id string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, sh := range s.campaigns[id].shards {
		if sh.journal != nil {
			n += sh.journal.Writes()
		}
	}
	return n
}
