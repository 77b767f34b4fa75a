//! Socket abstraction layer (RT-Thread SAL / lwIP-style sockets).
//!
//! The networking substrate of the paper's case study: bug #12 fires when
//! `sal_socket` logs its creation banner through a serial device that an
//! earlier call unregistered. The layer models the socket lifecycle
//! (create, bind, connect, send, close) over an in-kernel loopback.
//!
//! Variants: 0 socket entry, 1 bad domain, 2 bad type, 3 created,
//! 4 table full, 5 bind ok, 6 bind in use, 7 connect ok, 8 connect refused,
//! 9 send ok, 10 send not connected, 11 close, 12 bad handle.

use crate::ctx::ExecCtx;

/// Address family constants (AF_*).
pub mod af {
    /// AF_INET.
    pub const INET: u64 = 2;
    /// AF_INET6.
    pub const INET6: u64 = 10;
    /// AF_UNIX.
    pub const UNIX: u64 = 1;
}

/// Socket types (SOCK_*).
pub mod sock {
    /// SOCK_STREAM.
    pub const STREAM: u64 = 1;
    /// SOCK_DGRAM.
    pub const DGRAM: u64 = 2;
}

/// Socket layer failure modes (mapped to negative errno by OS wrappers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SalError {
    /// Unsupported address family.
    BadDomain,
    /// Unsupported socket type.
    BadType,
    /// Socket table full.
    TooMany,
    /// Handle does not name an open socket.
    BadHandle,
    /// Port already bound.
    AddrInUse,
    /// Connect target refused (nothing listening on the loopback port).
    Refused,
    /// Send on an unconnected stream socket.
    NotConnected,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SockState {
    Open,
    Bound(u16),
    Connected(u16),
    Closed,
}

#[derive(Debug, Clone)]
struct Socket {
    ty: u64,
    state: SockState,
    tx_bytes: u64,
}

/// The socket layer of one kernel.
#[derive(Debug, Clone, Default)]
pub struct SocketLayer {
    sockets: Vec<Socket>,
    max_sockets: usize,
    creations: u64,
}

impl SocketLayer {
    /// A layer with room for `max_sockets` concurrent sockets.
    pub fn new(max_sockets: usize) -> Self {
        SocketLayer {
            sockets: Vec::new(),
            max_sockets,
            creations: 0,
        }
    }

    /// Sockets created over the kernel's lifetime.
    pub fn creations(&self) -> u64 {
        self.creations
    }

    /// Open sockets right now.
    pub fn open_count(&self) -> usize {
        self.sockets
            .iter()
            .filter(|s| s.state != SockState::Closed)
            .count()
    }

    /// `socket(domain, type, protocol)`.
    pub fn socket(
        &mut self,
        ctx: &mut ExecCtx<'_>,
        site: &'static str,
        domain: u64,
        ty: u64,
        _protocol: u64,
    ) -> Result<u32, SalError> {
        ctx.cov_var(site, 0);
        ctx.charge(4);
        if ![af::INET, af::INET6, af::UNIX].contains(&domain) {
            ctx.cov_var(site, 1);
            return Err(SalError::BadDomain);
        }
        if ![sock::STREAM, sock::DGRAM].contains(&ty) {
            ctx.cov_var(site, 2);
            return Err(SalError::BadType);
        }
        if self.open_count() >= self.max_sockets {
            ctx.cov_var(site, 4);
            return Err(SalError::TooMany);
        }
        ctx.cov_var(site, 3);
        ctx.cov_var(site, 100 + self.open_count() as u64);
        ctx.cov_var(site, 110 + domain * 4 + ty);
        self.sockets.push(Socket {
            ty,
            state: SockState::Open,
            tx_bytes: 0,
        });
        self.creations += 1;
        Ok(self.sockets.len() as u32 - 1)
    }

    fn get_mut(&mut self, handle: u32) -> Result<&mut Socket, SalError> {
        match self.sockets.get_mut(handle as usize) {
            Some(s) if s.state != SockState::Closed => Ok(s),
            _ => Err(SalError::BadHandle),
        }
    }

    /// Bind to a port.
    pub fn bind(
        &mut self,
        ctx: &mut ExecCtx<'_>,
        site: &'static str,
        handle: u32,
        port: u16,
    ) -> Result<(), SalError> {
        ctx.charge(3);
        let in_use = self
            .sockets
            .iter()
            .any(|s| matches!(s.state, SockState::Bound(p) if p == port));
        let s = self.get_mut(handle).inspect_err(|_| {
            ctx.cov_var(site, 12);
        })?;
        if in_use {
            ctx.cov_var(site, 6);
            return Err(SalError::AddrInUse);
        }
        ctx.cov_var(site, 5);
        ctx.cov_var(site, 100 + (port as u64 / 4096));
        s.state = SockState::Bound(port);
        Ok(())
    }

    /// Connect to a loopback port; succeeds only if some socket is bound
    /// there.
    pub fn connect(
        &mut self,
        ctx: &mut ExecCtx<'_>,
        site: &'static str,
        handle: u32,
        port: u16,
    ) -> Result<(), SalError> {
        ctx.charge(3);
        let listening = self
            .sockets
            .iter()
            .any(|s| matches!(s.state, SockState::Bound(p) if p == port));
        let s = self.get_mut(handle).inspect_err(|_| {
            ctx.cov_var(site, 12);
        })?;
        if !listening {
            ctx.cov_var(site, 8);
            return Err(SalError::Refused);
        }
        ctx.cov_var(site, 7);
        s.state = SockState::Connected(port);
        Ok(())
    }

    /// Send bytes. Streams require connection; datagrams do not.
    pub fn send(
        &mut self,
        ctx: &mut ExecCtx<'_>,
        site: &'static str,
        handle: u32,
        data: &[u8],
    ) -> Result<u64, SalError> {
        ctx.charge(2 + data.len() as u64 / 8);
        let s = self.get_mut(handle).inspect_err(|_| {
            ctx.cov_var(site, 12);
        })?;
        if s.ty == sock::STREAM && !matches!(s.state, SockState::Connected(_)) {
            ctx.cov_var(site, 10);
            return Err(SalError::NotConnected);
        }
        ctx.cov_var(site, 9);
        ctx.cov_var(site, 100 + (data.len() as u64 / 16).min(8));
        // Silicon-only: NIC DMA segmentation per payload band.
        if ctx.bus.silicon {
            ctx.cov_var(site, 300 + (data.len() as u64 / 8).min(15));
        }
        s.tx_bytes += data.len() as u64;
        Ok(data.len() as u64)
    }

    /// Close a socket.
    pub fn close(
        &mut self,
        ctx: &mut ExecCtx<'_>,
        site: &'static str,
        handle: u32,
    ) -> Result<(), SalError> {
        ctx.charge(2);
        let s = self.get_mut(handle).inspect_err(|_| {
            ctx.cov_var(site, 12);
        })?;
        ctx.cov_var(site, 11);
        s.state = SockState::Closed;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::CovState;
    use eof_hal::{Bus, Endianness};

    fn with_ctx<R>(f: impl FnOnce(&mut ExecCtx<'_>) -> R) -> R {
        let mut bus = Bus::new(0x2000_0000, 0x1000, Endianness::Little);
        let mut cov = CovState::uninstrumented();
        let mut ctx = ExecCtx::new(&mut bus, &mut cov);
        f(&mut ctx)
    }

    #[test]
    fn stream_lifecycle() {
        with_ctx(|ctx| {
            let mut l = SocketLayer::new(8);
            let srv = l.socket(ctx, "s", af::INET, sock::STREAM, 0).unwrap();
            l.bind(ctx, "s", srv, 8080).unwrap();
            let cli = l.socket(ctx, "s", af::INET, sock::STREAM, 0).unwrap();
            assert_eq!(l.send(ctx, "s", cli, b"x"), Err(SalError::NotConnected));
            l.connect(ctx, "s", cli, 8080).unwrap();
            assert_eq!(l.send(ctx, "s", cli, b"ping").unwrap(), 4);
            l.close(ctx, "s", cli).unwrap();
            assert_eq!(l.send(ctx, "s", cli, b"x"), Err(SalError::BadHandle));
        });
    }

    #[test]
    fn dgram_sends_unconnected() {
        with_ctx(|ctx| {
            let mut l = SocketLayer::new(4);
            let s = l.socket(ctx, "s", af::INET, sock::DGRAM, 0).unwrap();
            assert_eq!(l.send(ctx, "s", s, b"dg").unwrap(), 2);
        });
    }

    #[test]
    fn domain_and_type_validation() {
        with_ctx(|ctx| {
            let mut l = SocketLayer::new(4);
            assert_eq!(
                l.socket(ctx, "s", 99, sock::STREAM, 0),
                Err(SalError::BadDomain)
            );
            assert_eq!(l.socket(ctx, "s", af::INET, 9, 0), Err(SalError::BadType));
        });
    }

    #[test]
    fn port_collision() {
        with_ctx(|ctx| {
            let mut l = SocketLayer::new(4);
            let a = l.socket(ctx, "s", af::INET, sock::STREAM, 0).unwrap();
            let b = l.socket(ctx, "s", af::INET, sock::STREAM, 0).unwrap();
            l.bind(ctx, "s", a, 80).unwrap();
            assert_eq!(l.bind(ctx, "s", b, 80), Err(SalError::AddrInUse));
        });
    }

    #[test]
    fn connect_refused_without_listener() {
        with_ctx(|ctx| {
            let mut l = SocketLayer::new(4);
            let c = l.socket(ctx, "s", af::INET, sock::STREAM, 0).unwrap();
            assert_eq!(l.connect(ctx, "s", c, 9999), Err(SalError::Refused));
        });
    }

    #[test]
    fn table_limit_counts_open_only() {
        with_ctx(|ctx| {
            let mut l = SocketLayer::new(1);
            let a = l.socket(ctx, "s", af::INET, sock::DGRAM, 0).unwrap();
            assert_eq!(
                l.socket(ctx, "s", af::INET, sock::DGRAM, 0),
                Err(SalError::TooMany)
            );
            l.close(ctx, "s", a).unwrap();
            assert!(l.socket(ctx, "s", af::INET, sock::DGRAM, 0).is_ok());
            assert_eq!(l.creations(), 2);
        });
    }
}
