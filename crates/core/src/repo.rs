//! The compressed repository (§1.1 module 2): everything the loader
//! produces, with the access methods the query processor consumes.

use crate::container::Container;
use crate::dictionary::NameDictionary;
use crate::ids::{ContainerId, ElemId, PathId, TagCode};
use crate::structure::StructureTree;
use crate::summary::{PathKind, StructureSummary};

/// A loaded, compressed document.
pub struct Repository {
    /// Element/attribute name dictionary.
    pub dict: NameDictionary,
    /// The structure tree, as pre-order arrays.
    pub tree: StructureTree,
    /// The structure summary (dataguide with extents).
    pub summary: StructureSummary,
    /// Value containers, indexed by [`ContainerId`].
    pub containers: Vec<Container>,
    /// Original document size in bytes.
    pub original_bytes: usize,
}

/// Size breakdown of a repository, for the compression-factor experiments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SizeReport {
    /// Original document bytes.
    pub original: usize,
    /// Name dictionary bytes.
    pub dictionary: usize,
    /// Structure-tree node records (includes the redundant parent pointers).
    pub structure_tree: usize,
    /// Number of structure-tree nodes.
    pub node_count: usize,
    /// Structure summary including extent lists.
    pub summary: usize,
    /// Compressed container payloads.
    pub containers: usize,
    /// Container-record parent pointers.
    pub pointers: usize,
    /// Source models (each shared model counted once).
    pub models: usize,
}

impl SizeReport {
    /// Total compressed size including every access-support structure.
    pub fn total(&self) -> usize {
        self.dictionary + self.structure_tree + self.summary + self.containers + self.pointers
            + self.models
    }

    /// Size without the redundant access structures — the §2.2 "shrink by a
    /// factor of 3 to 4" comparison point. Drops the summary (with its
    /// extents), the container parent pointers, and the navigational part of
    /// the node records, leaving an XMill-style minimum: dictionary-coded
    /// tag stream plus compressed containers and models.
    pub fn total_without_access_structures(&self) -> usize {
        self.dictionary + self.node_count + self.containers + self.models
    }

    /// Compression factor `1 - cs/os` as used throughout §5.
    pub fn compression_factor(&self) -> f64 {
        1.0 - self.total() as f64 / self.original as f64
    }
}

impl Repository {
    /// Borrow a container.
    pub fn container(&self, id: ContainerId) -> &Container {
        &self.containers[id.0 as usize]
    }

    /// The document root element.
    pub fn root(&self) -> Option<ElemId> {
        (!self.tree.is_empty()).then_some(ElemId(0))
    }

    /// Resolve a leaf path string like `/site/people/person/name/text()` or
    /// `//item/@id` to its container. `//` performs descendant search from
    /// that point in the summary.
    pub fn container_by_path(&self, path: &str) -> Option<ContainerId> {
        let leaves = self.resolve_path(path)?;
        leaves.into_iter().find_map(|p| self.summary.node(p).container)
    }

    /// Resolve a path string to summary nodes. Supports `/a/b`, `//a/b`,
    /// interior `//`, `@attr` and `text()` components.
    pub fn resolve_path(&self, path: &str) -> Option<Vec<PathId>> {
        let mut current = vec![self.summary.root()];
        let mut rest = path.trim();
        while !rest.is_empty() {
            let descendant = if let Some(r) = rest.strip_prefix("//") {
                rest = r;
                true
            } else if let Some(r) = rest.strip_prefix('/') {
                rest = r;
                false
            } else {
                false
            };
            let end = rest.find('/').unwrap_or(rest.len());
            let (step, r) = rest.split_at(end);
            rest = r;
            if step.is_empty() {
                continue;
            }
            current = self.resolve_step(&current, step, descendant)?;
        }
        Some(current)
    }

    fn resolve_step(&self, from: &[PathId], step: &str, descendant: bool) -> Option<Vec<PathId>> {
        let mut out = Vec::new();
        for &p in from {
            if let Some(attr) = step.strip_prefix('@') {
                let Some(code) = self.dict.code(attr) else { continue };
                let sources = if descendant { self.summary_subtree(p) } else { vec![p] };
                for s in sources {
                    for &c in &self.summary.node(s).children {
                        if self.summary.node(c).kind == PathKind::Attribute(code) {
                            out.push(c);
                        }
                    }
                }
            } else if step == "text()" {
                let sources = if descendant { self.summary_subtree(p) } else { vec![p] };
                for s in sources {
                    for &c in &self.summary.node(s).children {
                        if self.summary.node(c).kind == PathKind::Text {
                            out.push(c);
                        }
                    }
                }
            } else {
                let Some(code) = self.dict.code(step) else { continue };
                if descendant {
                    out.extend(self.summary.descendant_elements(p, code));
                } else if let Some(c) = self.summary.child_element(p, code) {
                    out.push(c);
                }
            }
        }
        out.sort();
        out.dedup();
        if out.is_empty() {
            None
        } else {
            Some(out)
        }
    }

    fn summary_subtree(&self, from: PathId) -> Vec<PathId> {
        let mut out = Vec::new();
        let mut stack = vec![from];
        while let Some(p) = stack.pop() {
            if matches!(self.summary.node(p).kind, PathKind::Element(_) | PathKind::Root) {
                out.push(p);
            }
            stack.extend(self.summary.node(p).children.iter().rev().copied());
        }
        out
    }

    /// The display string of a container's path.
    pub fn container_path_string(&self, id: ContainerId) -> String {
        self.container_path(id).to_string()
    }

    /// A container's rooted leaf path, written when displayed.
    pub fn container_path(&self, id: ContainerId) -> impl std::fmt::Display + '_ {
        let path = self.containers[id.0 as usize].path;
        self.summary.path(path, |t: TagCode| self.dict.name(t))
    }

    /// Compute the size breakdown.
    pub fn size_report(&self) -> SizeReport {
        let mut models = 0usize;
        let mut seen: Vec<*const xquec_compress::ValueCodec> = Vec::new();
        let mut containers = 0usize;
        let mut pointers = 0usize;
        for c in &self.containers {
            containers += c.compressed_size();
            pointers += c.pointer_size();
            let ptr: *const xquec_compress::ValueCodec = std::sync::Arc::as_ptr(c.codec());
            if !seen.contains(&ptr) {
                seen.push(ptr);
                models += c.codec().model_size();
            }
        }
        SizeReport {
            original: self.original_bytes,
            dictionary: self.dict.serialized_size(),
            structure_tree: self.tree.serialized_size(),
            node_count: self.tree.len(),
            summary: self.summary.serialized_size(),
            containers,
            pointers,
            models,
        }
    }
}
