//! Serial device framework (RT-Thread `rt_device`/`rt_serial` style).
//!
//! Devices live in a table; `open` hands out a handle, `write` walks the
//! polled-TX path the paper's Figure 6 shows (`rt_serial_write` →
//! `_serial_poll_tx`, with the `'\n'` → `'\r\n'` stream translation).
//! The framework keeps *stale* entries after `unregister` — a dangling
//! device pointer survives exactly like the one that crashes in bug #12.
//!
//! Variants: 0 register, 1 dup, 2 unregister, 3 open ok, 4 open missing,
//! 5 write entry, 6 stream CR insertion, 7 write to stale device,
//! 8 close, 9 find.

use crate::ctx::ExecCtx;

/// Open-mode flag: stream mode (translate `\n` to `\r\n`).
pub const FLAG_STREAM: u32 = 0x040;

/// Serial framework failure modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SerialError {
    /// Device name already registered.
    DupName,
    /// No such device.
    NotFound,
    /// Handle does not denote an open device.
    BadHandle,
    /// Device exists but was unregistered (stale).
    Stale,
    /// Device is open and cannot be unregistered.
    Busy,
}

#[derive(Debug, Clone)]
struct SerialDevice {
    name: String,
    open_flags: u32,
    registered: bool,
    opened: bool,
    tx_bytes: u64,
}

/// The device table of one kernel.
#[derive(Debug, Clone, Default)]
pub struct SerialFramework {
    devices: Vec<SerialDevice>,
}

impl SerialFramework {
    /// An empty framework.
    pub fn new() -> Self {
        Self::default()
    }

    /// A framework with the usual console UART pre-registered.
    pub fn with_console() -> Self {
        let mut f = Self::new();
        f.devices.push(SerialDevice {
            name: "uart0".into(),
            open_flags: FLAG_STREAM,
            registered: true,
            opened: true,
            tx_bytes: 0,
        });
        f
    }

    /// Number of registered (live) devices.
    pub fn registered_count(&self) -> usize {
        self.devices.iter().filter(|d| d.registered).count()
    }

    /// Register a device by name. Returns its index handle.
    pub fn register(
        &mut self,
        ctx: &mut ExecCtx<'_>,
        site: &'static str,
        name: &str,
    ) -> Result<u32, SerialError> {
        ctx.cov_var(site, 0);
        ctx.charge(2);
        if self.devices.iter().any(|d| d.registered && d.name == name) {
            ctx.cov_var(site, 1);
            return Err(SerialError::DupName);
        }
        self.devices.push(SerialDevice {
            name: name.to_string(),
            open_flags: 0,
            registered: true,
            opened: false,
            tx_bytes: 0,
        });
        Ok(self.devices.len() as u32 - 1)
    }

    /// Unregister a device by name. The table entry stays, stale.
    pub fn unregister(
        &mut self,
        ctx: &mut ExecCtx<'_>,
        site: &'static str,
        name: &str,
    ) -> Result<(), SerialError> {
        ctx.charge(2);
        match self
            .devices
            .iter_mut()
            .find(|d| d.registered && d.name == name)
        {
            Some(d) => {
                ctx.cov_var(site, 2);
                d.registered = false;
                Ok(())
            }
            None => Err(SerialError::NotFound),
        }
    }

    /// Unregister a device by handle (the entry stays, stale). Open
    /// devices are busy and refuse to unregister.
    pub fn unregister_handle(
        &mut self,
        ctx: &mut ExecCtx<'_>,
        site: &'static str,
        handle: u32,
    ) -> Result<(), SerialError> {
        ctx.charge(2);
        match self.devices.get_mut(handle as usize) {
            Some(d) if d.registered && d.opened => {
                ctx.cov_var(site, 10);
                Err(SerialError::Busy)
            }
            Some(d) if d.registered => {
                ctx.cov_var(site, 2);
                d.registered = false;
                Ok(())
            }
            _ => Err(SerialError::NotFound),
        }
    }

    /// Close an open device by handle.
    pub fn close_handle(
        &mut self,
        ctx: &mut ExecCtx<'_>,
        site: &'static str,
        handle: u32,
    ) -> Result<(), SerialError> {
        ctx.charge(2);
        match self.devices.get_mut(handle as usize) {
            Some(d) if d.registered && d.opened => {
                ctx.cov_var(site, 8);
                d.opened = false;
                Ok(())
            }
            Some(d) if d.registered => Err(SerialError::BadHandle),
            _ => Err(SerialError::NotFound),
        }
    }

    /// Find a device handle by name (live devices only).
    pub fn find(&self, ctx: &mut ExecCtx<'_>, site: &'static str, name: &str) -> Option<u32> {
        ctx.charge(1);
        ctx.cov_var(site, 9);
        self.devices
            .iter()
            .position(|d| d.registered && d.name == name)
            .map(|i| i as u32)
    }

    /// Open a device with flags.
    pub fn open(
        &mut self,
        ctx: &mut ExecCtx<'_>,
        site: &'static str,
        handle: u32,
        flags: u32,
    ) -> Result<(), SerialError> {
        ctx.charge(2);
        let Some(d) = self.devices.get_mut(handle as usize) else {
            ctx.cov_var(site, 4);
            return Err(SerialError::BadHandle);
        };
        if !d.registered {
            ctx.cov_var(site, 4);
            return Err(SerialError::NotFound);
        }
        ctx.cov_var(site, 3);
        d.opened = true;
        d.open_flags = flags;
        Ok(())
    }

    /// Whether a device entry is stale (unregistered but still present).
    pub fn is_stale(&self, handle: u32) -> bool {
        self.devices
            .get(handle as usize)
            .map(|d| !d.registered)
            .unwrap_or(false)
    }

    /// Write bytes through the polled-TX path. Returns bytes emitted
    /// (after stream translation). Writing to a stale device is reported
    /// as [`SerialError::Stale`] — the RT-Thread wrapper escalates that
    /// into bug #12's panic because its `RT_ASSERT(serial != RT_NULL)`
    /// cannot see staleness.
    pub fn write(
        &mut self,
        ctx: &mut ExecCtx<'_>,
        site: &'static str,
        handle: u32,
        data: &[u8],
    ) -> Result<u64, SerialError> {
        ctx.cov_var(site, 5);
        ctx.charge(2 + data.len() as u64 / 4);
        let Some(d) = self.devices.get_mut(handle as usize) else {
            return Err(SerialError::BadHandle);
        };
        if !d.registered {
            ctx.cov_var(site, 7);
            return Err(SerialError::Stale);
        }
        ctx.cov_var(site, 100 + (data.len() as u64 / 8).min(8));
        ctx.cov_var(site, 120 + (d.open_flags & 0xf) as u64);
        // Silicon-only: the UART peripheral's TX FIFO threshold logic
        // branches per fill band; an emulated UART is a bottomless sink.
        if ctx.bus.silicon {
            ctx.cov_var(site, 400 + (d.tx_bytes % 64) / 4);
        }
        let mut emitted = 0u64;
        for &b in data {
            if b == b'\n' && d.open_flags & FLAG_STREAM != 0 {
                ctx.cov_var(site, 6);
                emitted += 1; // The inserted '\r'.
            }
            emitted += 1;
        }
        d.tx_bytes += emitted;
        Ok(emitted)
    }

    /// Total bytes a device has transmitted.
    pub fn tx_bytes(&self, handle: u32) -> Option<u64> {
        self.devices.get(handle as usize).map(|d| d.tx_bytes)
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
    fn register_find_open_write() {
        with_ctx(|ctx| {
            let mut f = SerialFramework::new();
            let h = f.register(ctx, "s", "uart1").unwrap();
            assert_eq!(f.find(ctx, "s", "uart1"), Some(h));
            f.open(ctx, "s", h, 0).unwrap();
            assert_eq!(f.write(ctx, "s", h, b"hi\n").unwrap(), 3);
        });
    }

    #[test]
    fn stream_mode_inserts_cr() {
        with_ctx(|ctx| {
            let mut f = SerialFramework::new();
            let h = f.register(ctx, "s", "uart1").unwrap();
            f.open(ctx, "s", h, FLAG_STREAM).unwrap();
            // "a\nb\n" → "a\r\nb\r\n": 6 bytes.
            assert_eq!(f.write(ctx, "s", h, b"a\nb\n").unwrap(), 6);
            assert_eq!(f.tx_bytes(h), Some(6));
        });
    }

    #[test]
    fn duplicate_names_rejected() {
        with_ctx(|ctx| {
            let mut f = SerialFramework::new();
            f.register(ctx, "s", "uart1").unwrap();
            assert_eq!(f.register(ctx, "s", "uart1"), Err(SerialError::DupName));
        });
    }

    #[test]
    fn unregister_leaves_stale_entry() {
        with_ctx(|ctx| {
            let mut f = SerialFramework::new();
            let h = f.register(ctx, "s", "uart1").unwrap();
            f.unregister(ctx, "s", "uart1").unwrap();
            assert!(f.is_stale(h));
            assert_eq!(f.find(ctx, "s", "uart1"), None);
            // The stale handle still reaches the write path — and fails
            // the way bug #12 needs.
            assert_eq!(f.write(ctx, "s", h, b"log"), Err(SerialError::Stale));
            // Re-registering the same name creates a fresh entry.
            let h2 = f.register(ctx, "s", "uart1").unwrap();
            assert_ne!(h, h2);
        });
    }

    #[test]
    fn console_preregistered() {
        with_ctx(|ctx| {
            let f = SerialFramework::with_console();
            assert_eq!(f.registered_count(), 1);
            assert!(f.find(ctx, "s", "uart0").is_some());
        });
    }

    #[test]
    fn bad_handles() {
        with_ctx(|ctx| {
            let mut f = SerialFramework::new();
            assert_eq!(f.open(ctx, "s", 42, 0), Err(SerialError::BadHandle));
            assert_eq!(f.write(ctx, "s", 42, b"x"), Err(SerialError::BadHandle));
            assert_eq!(f.unregister(ctx, "s", "ghost"), Err(SerialError::NotFound));
        });
    }
}
