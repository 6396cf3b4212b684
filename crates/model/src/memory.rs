//! Model memory accounting: weights, embeddings, KV cache.

use serde::{Deserialize, Serialize};

use crate::config::ModelConfig;
use crate::layer::Block;

/// Bytes per KV-cache element (FP16).
pub const KV_BYTES_PER_ELEMENT: u64 = 2;

/// Byte-level memory footprint of a model, split by component.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemoryFootprint {
    /// Bytes of sparsity-eligible attention-block weights across all layers.
    pub attention_neuron_bytes: u64,
    /// Bytes of sparsity-eligible MLP-block weights across all layers.
    pub mlp_neuron_bytes: u64,
    /// Bytes of dense projection weights across all layers.
    pub projection_bytes: u64,
    /// Bytes of the token embedding table and LM head.
    pub embedding_bytes: u64,
    /// Bytes of per-token KV cache for the whole model (both K and V).
    pub kv_bytes_per_token: u64,
}

impl MemoryFootprint {
    /// Compute the footprint of a model configuration.
    pub fn of(cfg: &ModelConfig) -> Self {
        let shape = cfg.layer_shape();
        let layers = cfg.num_layers as u64;
        MemoryFootprint {
            attention_neuron_bytes: layers * shape.sparse_block_bytes(Block::Attention),
            mlp_neuron_bytes: layers * shape.sparse_block_bytes(Block::Mlp),
            projection_bytes: layers * shape.projection_bytes(),
            embedding_bytes: 2
                * (cfg.vocab_size as u64)
                * (cfg.hidden_size as u64)
                * cfg.dtype_bytes,
            kv_bytes_per_token: layers * shape.kv_bytes_per_token(),
        }
    }

    /// Total weight bytes (everything except the KV cache).
    pub fn total_bytes(&self) -> u64 {
        self.attention_neuron_bytes
            + self.mlp_neuron_bytes
            + self.projection_bytes
            + self.embedding_bytes
    }

    /// Bytes of sparsity-eligible weights (hot/cold partitionable).
    pub fn sparse_bytes(&self) -> u64 {
        self.attention_neuron_bytes + self.mlp_neuron_bytes
    }

    /// Bytes that must always stay resident on the GPU (dense projections,
    /// embeddings, LM head) under the Hermes mapping.
    pub fn dense_resident_bytes(&self) -> u64 {
        self.projection_bytes + self.embedding_bytes
    }

    /// KV-cache bytes for a sequence of the given length and batch size.
    ///
    /// Unchecked: callers pass lengths that
    /// [`MemoryFootprint::checked_kv_cache_bytes`] has already accepted
    /// (workload validation does this for every planned workload).
    pub fn kv_cache_bytes(&self, seq_len: usize, batch: usize) -> u64 {
        self.kv_bytes_per_token * seq_len as u64 * batch as u64
    }

    /// KV-cache bytes for a sequence of the given length and batch size, or
    /// `None` when the count overflows `u64`.
    pub fn checked_kv_cache_bytes(&self, seq_len: usize, batch: usize) -> Option<u64> {
        self.kv_bytes_per_token
            .checked_mul(u64::try_from(seq_len).ok()?)?
            .checked_mul(u64::try_from(batch).ok()?)
    }
}

#[cfg(test)]
mod tests {
    use crate::config::{ModelConfig, ModelId};

    #[test]
    fn totals_add_up() {
        let fp = ModelConfig::from_id(ModelId::Opt30B).memory_footprint();
        assert_eq!(
            fp.total_bytes(),
            fp.sparse_bytes() + fp.dense_resident_bytes()
        );
    }

    #[test]
    fn sparse_weights_dominate() {
        // The hot/cold partition only matters because the QKV + MLP weights
        // are the bulk of the model; check they exceed 70% of total bytes.
        for id in ModelId::ALL {
            let fp = ModelConfig::from_id(id).memory_footprint();
            let frac = fp.sparse_bytes() as f64 / fp.total_bytes() as f64;
            assert!(frac > 0.7, "{id}: sparse fraction {frac:.2}");
        }
    }

    #[test]
    fn llama70b_does_not_fit_in_24gb() {
        // The premise of the paper: consumer GPUs cannot hold these models.
        let fp = ModelConfig::from_id(ModelId::Llama2_70B).memory_footprint();
        assert!(fp.total_bytes() > 24 * crate::GIB);
    }

    #[test]
    fn kv_cache_scales_linearly() {
        let fp = ModelConfig::from_id(ModelId::Llama2_13B).memory_footprint();
        assert_eq!(fp.kv_cache_bytes(256, 2), 4 * fp.kv_cache_bytes(128, 1));
    }

    #[test]
    fn checked_kv_cache_bytes_rejects_overflow() {
        let fp = ModelConfig::from_id(ModelId::Opt13B).memory_footprint();
        assert_eq!(
            fp.checked_kv_cache_bytes(256, 2),
            Some(fp.kv_cache_bytes(256, 2))
        );
        assert_eq!(fp.checked_kv_cache_bytes(usize::MAX / 4, 1), None);
        assert_eq!(fp.checked_kv_cache_bytes(1, usize::MAX), None);
    }

    #[test]
    fn gqa_shrinks_kv_cache() {
        let llama70 = ModelConfig::from_id(ModelId::Llama2_70B).memory_footprint();
        let opt66 = ModelConfig::from_id(ModelId::Opt66B).memory_footprint();
        // LLaMA2-70B has more layers but 8 KV heads; its per-token KV cache
        // should be smaller than OPT-66B's full-MHA cache.
        assert!(llama70.kv_bytes_per_token < opt66.kv_bytes_per_token);
    }
}
