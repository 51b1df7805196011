//! Workload zoo: layer-dimension definitions for the networks used in the
//! paper's evaluation and in the wider test-suite.
//!
//! The paper evaluates on **VGGNet-16 with batch size 3** (Section VI); all
//! figure-reproduction benches iterate [`vgg16`]`(3)`. Only layer
//! *dimensions* matter for every evaluated quantity (communication volumes,
//! energy, cycles), so no pretrained weights are involved.

use serde::{Deserialize, Serialize};

use crate::{ConvLayer, Padding};

/// A named network: an ordered list of named convolutional layers.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Network {
    name: String,
    layers: Vec<NamedLayer>,
}

/// One layer of a [`Network`], with its human-readable name.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NamedLayer {
    /// Layer name, e.g. `"conv3_2"`.
    pub name: String,
    /// Layer geometry.
    pub layer: ConvLayer,
}

impl Network {
    /// Creates a network from `(name, layer)` pairs.
    #[must_use]
    pub fn new(name: impl Into<String>, layers: Vec<(String, ConvLayer)>) -> Self {
        Network {
            name: name.into(),
            layers: layers
                .into_iter()
                .map(|(name, layer)| NamedLayer { name, layer })
                .collect(),
        }
    }

    /// Network name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Iterates over the layers in order.
    pub fn conv_layers(&self) -> impl Iterator<Item = &NamedLayer> {
        self.layers.iter()
    }

    /// Number of layers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// True when the network has no layers.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Layer by index.
    #[must_use]
    pub fn layer(&self, index: usize) -> Option<&NamedLayer> {
        self.layers.get(index)
    }

    /// Total MAC count over all layers, saturating at `u64::MAX`.
    ///
    /// The sum is accumulated in `u128` — per-layer counts are `u64`, so a
    /// user-supplied network a few layers deep can exceed `u64::MAX` even
    /// when every individual layer is in range. Use [`Self::total_macs_u128`]
    /// when the exact value matters.
    #[must_use]
    pub fn total_macs(&self) -> u64 {
        u64::try_from(self.total_macs_u128()).unwrap_or(u64::MAX)
    }

    /// Exact total MAC count over all layers, accumulated in `u128` so it
    /// cannot overflow (`u64::MAX` per layer × practical layer counts is far
    /// below `u128::MAX`).
    #[must_use]
    pub fn total_macs_u128(&self) -> u128 {
        self.layers.iter().map(|l| u128::from(l.layer.macs())).sum()
    }
}

fn square(batch: usize, co: usize, size: usize, ci: usize) -> ConvLayer {
    ConvLayer::square(batch, co, size, ci, 3, 1).expect("static VGG layer is valid")
}

/// The 13 convolutional layers of VGGNet-16 (Simonyan & Zisserman 2014) at
/// the given batch size — the paper's evaluation workload with `batch = 3`.
///
/// All layers use 3×3 kernels, stride 1 and `same` padding, so each has the
/// maximum sliding-window reuse `R = 9`.
#[must_use]
pub fn vgg16(batch: usize) -> Network {
    let spec: [(&str, usize, usize, usize); 13] = [
        ("conv1_1", 64, 224, 3),
        ("conv1_2", 64, 224, 64),
        ("conv2_1", 128, 112, 64),
        ("conv2_2", 128, 112, 128),
        ("conv3_1", 256, 56, 128),
        ("conv3_2", 256, 56, 256),
        ("conv3_3", 256, 56, 256),
        ("conv4_1", 512, 28, 256),
        ("conv4_2", 512, 28, 512),
        ("conv4_3", 512, 28, 512),
        ("conv5_1", 512, 14, 512),
        ("conv5_2", 512, 14, 512),
        ("conv5_3", 512, 14, 512),
    ];
    Network::new(
        "VGGNet-16",
        spec.iter()
            .map(|&(name, co, size, ci)| (name.to_string(), square(batch, co, size, ci)))
            .collect(),
    )
}

/// The 5 convolutional layers of AlexNet (Krizhevsky et al. 2012) at the
/// given batch size. Exercises large kernels (11×11, 5×5) and stride 4.
#[must_use]
pub fn alexnet(batch: usize) -> Network {
    let l1 = ConvLayer::builder()
        .batch(batch)
        .out_channels(96)
        .in_channels(3)
        .input(227, 227)
        .kernel(11, 11)
        .stride(4)
        .padding(Padding::none())
        .build()
        .expect("static AlexNet layer is valid");
    let l2 = ConvLayer::builder()
        .batch(batch)
        .out_channels(256)
        .in_channels(96)
        .input(27, 27)
        .kernel(5, 5)
        .stride(1)
        .padding(Padding::same(5))
        .build()
        .expect("static AlexNet layer is valid");
    let mk3 = |co: usize, ci: usize| {
        ConvLayer::square(batch, co, 13, ci, 3, 1).expect("static AlexNet layer is valid")
    };
    Network::new(
        "AlexNet",
        vec![
            ("conv1".to_string(), l1),
            ("conv2".to_string(), l2),
            ("conv3".to_string(), mk3(384, 256)),
            ("conv4".to_string(), mk3(384, 384)),
            ("conv5".to_string(), mk3(256, 384)),
        ],
    )
}

/// A ResNet-style bottleneck block (1×1 → 3×3 → 1×1) at `size×size` with the
/// given channel widths. The 1×1 layers have `R = 1` — they are logically
/// matrix multiplications — so this workload exercises the MM corner of the
/// lower bound.
#[must_use]
pub fn resnet_bottleneck(batch: usize, size: usize, in_ch: usize, mid_ch: usize) -> Network {
    let reduce =
        ConvLayer::square(batch, mid_ch, size, in_ch, 1, 1).expect("static ResNet layer is valid");
    let conv =
        ConvLayer::square(batch, mid_ch, size, mid_ch, 3, 1).expect("static ResNet layer is valid");
    let expand =
        ConvLayer::square(batch, in_ch, size, mid_ch, 1, 1).expect("static ResNet layer is valid");
    Network::new(
        "ResNet-bottleneck",
        vec![
            ("reduce_1x1".to_string(), reduce),
            ("conv_3x3".to_string(), conv),
            ("expand_1x1".to_string(), expand),
        ],
    )
}

/// The convolutional layers of ResNet-50 (He et al. 2016) at the given
/// batch size: the 7×7 stem plus four bottleneck stages. Downsampling
/// 1×1 convolutions with stride 2 and the projection shortcuts are
/// included, so the network mixes `R = 9`, `R = 1` and `R < 1`-clamped
/// layers — a broad exercise of the bound.
#[must_use]
pub fn resnet50(batch: usize) -> Network {
    let mut layers: Vec<(String, ConvLayer)> = Vec::new();
    let stem = ConvLayer::builder()
        .batch(batch)
        .out_channels(64)
        .in_channels(3)
        .input(224, 224)
        .kernel(7, 7)
        .stride(2)
        .padding(Padding::same(7))
        .build()
        .expect("static ResNet-50 layer is valid");
    layers.push(("conv1".to_string(), stem));

    // (stage, blocks, size, in_ch of the stage, mid_ch, out_ch)
    let stages: [(usize, usize, usize, usize, usize, usize); 4] = [
        (2, 3, 56, 64, 64, 256),
        (3, 4, 28, 256, 128, 512),
        (4, 6, 14, 512, 256, 1024),
        (5, 3, 7, 1024, 512, 2048),
    ];
    for (stage, blocks, size, stage_in, mid, out) in stages {
        for block in 0..blocks {
            let in_ch = if block == 0 { stage_in } else { out };
            let prefix = format!("conv{stage}_{}", block + 1);
            let mk = |co: usize, ci: usize, k: usize| {
                ConvLayer::square(batch, co, size, ci, k, 1)
                    .expect("static ResNet-50 layer is valid")
            };
            layers.push((format!("{prefix}a"), mk(mid, in_ch, 1)));
            layers.push((format!("{prefix}b"), mk(mid, mid, 3)));
            layers.push((format!("{prefix}c"), mk(out, mid, 1)));
            if block == 0 {
                layers.push((format!("{prefix}sc"), mk(out, in_ch, 1)));
            }
        }
    }
    Network::new("ResNet-50", layers)
}

/// One GoogLeNet-style Inception module at `size×size` with the classic
/// 3a-block channel widths: parallel 1×1, 1×1→3×3, 1×1→5×5 and pool-proj
/// branches. Mixes four kernel sizes — and therefore four different `R`
/// values — in one workload.
#[must_use]
pub fn inception_module(batch: usize, size: usize, in_ch: usize) -> Network {
    let mk = |name: &str, co: usize, ci: usize, k: usize| {
        (
            name.to_string(),
            ConvLayer::square(batch, co, size, ci, k, 1).expect("static Inception layer is valid"),
        )
    };
    Network::new(
        "Inception-3a",
        vec![
            mk("branch1x1", 64, in_ch, 1),
            mk("branch3x3_reduce", 96, in_ch, 1),
            mk("branch3x3", 128, 96, 3),
            mk("branch5x5_reduce", 16, in_ch, 1),
            mk("branch5x5", 32, 16, 5),
            mk("pool_proj", 32, in_ch, 1),
        ],
    )
}

/// A fully-connected layer expressed as a 1×1 convolution on a 1×1 map,
/// which makes it exactly a matrix multiplication (`R = 1`), the case the
/// paper notes its theory covers with the classic `√S` factor.
#[must_use]
pub fn fully_connected(batch: usize, in_features: usize, out_features: usize) -> ConvLayer {
    ConvLayer::builder()
        .batch(batch)
        .out_channels(out_features)
        .in_channels(in_features)
        .input(1, 1)
        .kernel(1, 1)
        .stride(1)
        .build()
        .expect("static FC layer is valid")
}

/// A VGG-style fully-connected classifier head (fc6 → fc7 → fc8) expressed
/// as 1×1 convolutions on 1×1 maps via [`fully_connected`]'s im2col view:
/// each layer is exactly a GEMM with `R = 1`, exercising the pure
/// matrix-multiply corner of the bound at realistic feature widths.
#[must_use]
pub fn fc_stack(batch: usize) -> Network {
    Network::new(
        "FC-stack",
        vec![
            ("fc6".to_string(), fully_connected(batch, 512, 4096)),
            ("fc7".to_string(), fully_connected(batch, 4096, 4096)),
            ("fc8".to_string(), fully_connected(batch, 4096, 1000)),
        ],
    )
}

/// Small synthetic layers for functional tests: every combination stays tiny
/// enough for the reference kernel and the cycle simulator to run in
/// milliseconds while still covering stride, padding, batch and channel
/// variety.
#[must_use]
pub fn tiny_test_layers() -> Vec<ConvLayer> {
    let mut layers = Vec::new();
    for (b, co, size, ci, k, s) in [
        (1, 1, 4, 1, 1, 1),
        (1, 2, 5, 1, 3, 1),
        (2, 3, 6, 2, 3, 1),
        (1, 4, 8, 3, 3, 2),
        (2, 2, 7, 2, 5, 1),
        (1, 8, 6, 4, 1, 1),
    ] {
        if let Ok(layer) = ConvLayer::square(b, co, size, ci, k, s) {
            layers.push(layer);
        }
    }
    layers
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vgg16_has_13_layers() {
        let net = vgg16(3);
        assert_eq!(net.len(), 13);
        assert_eq!(net.name(), "VGGNet-16");
    }

    #[test]
    fn vgg16_macs_match_published_totals() {
        // VGG-16 convolution MACs are ~15.35 GMAC per image.
        let net = vgg16(1);
        let gmacs = net.total_macs() as f64 / 1e9;
        assert!(
            (15.0..15.7).contains(&gmacs),
            "unexpected VGG-16 MACs: {gmacs} G"
        );
    }

    #[test]
    fn vgg16_batch_scales_macs_linearly() {
        assert_eq!(vgg16(3).total_macs(), 3 * vgg16(1).total_macs());
    }

    #[test]
    fn vgg16_first_layer_shape() {
        let net = vgg16(3);
        let first = &net.layer(0).unwrap().layer;
        assert_eq!(first.in_channels(), 3);
        assert_eq!(first.out_channels(), 64);
        assert_eq!(first.output_height(), 224);
        assert_eq!(first.window_reuse(), 9.0);
    }

    #[test]
    fn alexnet_first_layer_strided() {
        let net = alexnet(1);
        let first = &net.layer(0).unwrap().layer;
        assert_eq!(first.stride(), 4);
        assert_eq!(first.output_height(), 55);
        // R = 121/16 ≈ 7.56
        assert!((first.window_reuse() - 121.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    fn fc_layer_is_mm() {
        let fc = fully_connected(16, 4096, 1000);
        assert!(fc.is_matrix_multiply());
        assert_eq!(fc.macs(), 16 * 4096 * 1000);
    }

    #[test]
    fn bottleneck_mixes_r_values() {
        let net = resnet_bottleneck(1, 28, 256, 64);
        let rs: Vec<f64> = net.conv_layers().map(|l| l.layer.window_reuse()).collect();
        assert_eq!(rs, vec![1.0, 9.0, 1.0]);
    }

    #[test]
    fn tiny_layers_all_valid() {
        assert!(!tiny_test_layers().is_empty());
    }

    #[test]
    fn inception_mixes_kernel_sizes() {
        let net = inception_module(1, 28, 192);
        assert_eq!(net.len(), 6);
        let mut rs: Vec<f64> = net.conv_layers().map(|l| l.layer.window_reuse()).collect();
        rs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        rs.dedup();
        assert_eq!(rs, vec![1.0, 9.0, 25.0]);
    }

    #[test]
    fn fc_stack_is_all_matrix_multiplies() {
        let net = fc_stack(3);
        assert_eq!(net.len(), 3);
        assert!(net.conv_layers().all(|l| l.layer.is_matrix_multiply()));
        // fc6 512→4096 + fc7 4096→4096 + fc8 4096→1000, batch 3.
        assert_eq!(
            net.total_macs(),
            3 * (512 * 4096 + 4096 * 4096 + 4096 * 1000)
        );
    }

    /// Regression: `total_macs` used to `sum()` per-layer `u64`s unchecked,
    /// panicking in debug (and wrapping in release) once a user-supplied
    /// network's MACs crossed `u64::MAX`. Five layers of 2^62 MACs each must
    /// now saturate instead, with the exact value available in `u128`.
    #[test]
    fn total_macs_saturates_instead_of_overflowing() {
        let big = ConvLayer::builder()
            .batch(1 << 16)
            .out_channels(1 << 16)
            .in_channels(1 << 16)
            .input(128, 128)
            .kernel(1, 1)
            .stride(1)
            .padding(Padding::none())
            .build()
            .expect("huge but structurally valid layer");
        assert_eq!(big.macs(), 1 << 62);
        let layers = (0..5).map(|i| (format!("huge{i}"), big)).collect();
        let net = Network::new("overflow-probe", layers);
        assert_eq!(net.total_macs(), u64::MAX);
        assert_eq!(net.total_macs_u128(), 5 * (1u128 << 62));
    }

    #[test]
    fn resnet50_layer_count() {
        // 1 stem + Σ blocks*3 + 4 shortcuts = 1 + (3+4+6+3)*3 + 4 = 53.
        let net = resnet50(1);
        assert_eq!(net.len(), 53);
    }

    #[test]
    fn resnet50_macs_match_published_scale() {
        // ResNet-50 convolutions are ~3.8 GMACs per image (excluding FC).
        let gmacs = resnet50(1).total_macs() as f64 / 1e9;
        assert!((3.2..4.3).contains(&gmacs), "ResNet-50 MACs: {gmacs} G");
    }

    #[test]
    fn resnet50_mixes_reuse_factors() {
        let net = resnet50(1);
        let rs: Vec<f64> = net.conv_layers().map(|l| l.layer.window_reuse()).collect();
        assert!(rs.contains(&9.0));
        assert!(rs.contains(&1.0));
        // The strided 7x7 stem: R = 49/4.
        assert!(rs.iter().any(|&r| (r - 12.25).abs() < 1e-12));
    }
}
