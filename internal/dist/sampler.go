package dist

import "deep500/internal/training"

// NewDistributedSampler returns worker `worker` of `world`'s shard sampler;
// it is training.NewShardSampler.
func NewDistributedSampler(ds training.Dataset, batch, worker, world int, seed uint64) *training.IndexSampler {
	return training.NewShardSampler(ds, batch, worker, world, seed)
}
