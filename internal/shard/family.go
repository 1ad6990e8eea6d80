package shard

import (
	"hash/fnv"

	"annotadb/internal/relation"
)

// ShardOf routes an annotation token to one of n shards by hashing its
// family with FNV-1a. The placement is a pure function of (token, n): every
// writer, reader, and recovery pass agrees on it without coordination, and
// it is stable across restarts as long as the shard count is unchanged
// (the durable manifest pins the count for exactly that reason).
func ShardOf(token string, n int) int {
	if n <= 1 {
		return 0
	}
	h := fnv.New32a()
	h.Write([]byte(relation.FamilyOf(token)))
	return int(h.Sum32() % uint32(n))
}
