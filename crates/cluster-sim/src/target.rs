//! Backend dispatch: the filesystems a node can checkpoint to.
//!
//! A closed enum instead of a trait object because async dispatch over a
//! known set is simpler and faster than boxed async traits, and the paper
//! evaluates exactly these three backends.

use std::rc::Rc;

use storage_model::{LocalFs, LustreClient, NfsClient, PvfsClient};

/// A node's mounted checkpoint target.
#[derive(Clone)]
pub enum Target {
    /// Node-local ext3.
    Ext3(Rc<LocalFs>),
    /// Lustre client (shared deployment).
    Lustre(Rc<LustreClient>),
    /// NFS client (shared single server).
    Nfs(Rc<NfsClient>),
    /// PVFS2 client (shared striped deployment, no client cache).
    Pvfs(Rc<PvfsClient>),
}

impl Target {
    /// Backend display name as the paper labels it.
    pub fn name(&self) -> &'static str {
        match self {
            Target::Ext3(_) => "ext3",
            Target::Lustre(_) => "lustre",
            Target::Nfs(_) => "nfs",
            Target::Pvfs(_) => "pvfs2",
        }
    }

    /// Opens (creates) a checkpoint file, returning its id.
    pub async fn open(&self) -> u64 {
        match self {
            Target::Ext3(fs) => fs.open().await,
            Target::Lustre(c) => c.open().await,
            Target::Nfs(c) => c.open().await,
            Target::Pvfs(c) => c.open().await,
        }
    }

    /// Writes `len` bytes at `offset`.
    pub async fn write(&self, fid: u64, offset: u64, len: u64) {
        match self {
            Target::Ext3(fs) => fs.write(fid, len).await,
            Target::Lustre(c) => c.write(fid, offset, len).await,
            Target::Nfs(c) => c.write(fid, offset, len).await,
            Target::Pvfs(c) => c.write(fid, offset, len).await,
        }
    }

    /// Closes the file (NFS commits; ext3/Lustre/PVFS are cheap).
    pub async fn close(&self, fid: u64) {
        match self {
            Target::Ext3(fs) => fs.close(fid).await,
            Target::Lustre(c) => c.close(fid).await,
            Target::Nfs(c) => c.close(fid).await,
            Target::Pvfs(c) => c.close(fid).await,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::rng::SimRng;
    use simkit::Sim;
    use storage_model::params::{AllocParams, CacheParams, DiskParams, VfsCostParams, MB};

    #[test]
    fn ext3_target_roundtrip() {
        let mut sim = Sim::new(0);
        sim.run(async {
            let fs = LocalFs::new(
                VfsCostParams::ext3_node(),
                AllocParams::ext3(),
                CacheParams::compute_node(),
                DiskParams::node_sata(),
                SimRng::new(0),
            );
            let t = Target::Ext3(Rc::clone(&fs));
            assert_eq!(t.name(), "ext3");
            let fid = t.open().await;
            t.write(fid, 0, MB).await;
            t.close(fid).await;
            let cache = fs.cache();
            assert_eq!(cache.dirty() + cache.written_back(), MB);
            fs.stop();
        });
    }
}
