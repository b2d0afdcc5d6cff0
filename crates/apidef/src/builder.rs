//! A fluent builder for constructing [`Api`]s programmatically — the
//! ergonomic alternative to `.api` stub text when the API is generated or
//! assembled in code (tests, the jungle generator, downstream tools).
//!
//! ```
//! use jungloid_apidef::{Api, ApiLoader};
//!
//! let mut api = ApiLoader::with_prelude().finish()?;
//! api.class("java.io", "Reader")?;
//! api.class("java.io", "InputStream")?;
//! api.class("java.io", "InputStreamReader")?
//!     .extends("Reader")?
//!     .ctor(&["InputStream"])?;
//! api.class("java.io", "BufferedReader")?
//!     .extends("Reader")?
//!     .ctor(&["Reader"])?
//!     .method("readLine", &[], "String")?;
//!
//! let br = api.types().resolve("BufferedReader")?;
//! assert_eq!(api.constructors_of(br).len(), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use jungloid_typesys::{Prim, TyId, TypeKind};

use crate::{Api, ApiError, FieldDef, MethodDef, Visibility};

impl Api {
    /// Declares a class and returns a builder for its hierarchy and
    /// members.
    ///
    /// # Errors
    ///
    /// Fails on duplicate type names.
    pub fn class<'a>(&'a mut self, package: &str, name: &str) -> Result<ClassBuilder<'a>, ApiError> {
        let ty = self.declare_class(package, name)?;
        Ok(ClassBuilder { api: self, ty })
    }

    /// Declares an interface and returns a builder.
    ///
    /// # Errors
    ///
    /// Fails on duplicate type names.
    pub fn interface<'a>(
        &'a mut self,
        package: &str,
        name: &str,
    ) -> Result<ClassBuilder<'a>, ApiError> {
        let ty = self.declare_interface(package, name)?;
        Ok(ClassBuilder { api: self, ty })
    }

    /// Parses a builder type name: `void`, a primitive keyword, a
    /// simple/qualified declared name, with `[]` suffixes.
    ///
    /// # Errors
    ///
    /// Unknown or ambiguous names fail.
    pub fn parse_type(&mut self, name: &str) -> Result<TyId, ApiError> {
        let mut dims = 0;
        let mut base = name.trim();
        while let Some(stripped) = base.strip_suffix("[]") {
            base = stripped.trim_end();
            dims += 1;
        }
        let mut ty = if base == "void" {
            self.types().void()
        } else if let Some(p) = Prim::from_keyword(base) {
            self.types().prim(p)
        } else {
            self.types().resolve(base)?
        };
        for _ in 0..dims {
            ty = self.types_mut().array_of(ty);
        }
        Ok(ty)
    }
}

/// Builder over one declared class or interface.
#[derive(Debug)]
pub struct ClassBuilder<'a> {
    api: &'a mut Api,
    ty: TyId,
}

impl ClassBuilder<'_> {
    /// The id of the type under construction.
    #[must_use]
    pub fn ty(&self) -> TyId {
        self.ty
    }

    /// Sets the superclass (classes) by name.
    ///
    /// # Errors
    ///
    /// Propagates resolution and hierarchy errors.
    pub fn extends(&mut self, name: &str) -> Result<&mut Self, ApiError> {
        let sup = self.api.types().resolve(name)?;
        match self.api.types().kind(self.ty) {
            Some(TypeKind::Class) => self.api.types_mut().set_superclass(self.ty, sup)?,
            _ => self.api.types_mut().add_interface(self.ty, sup)?,
        }
        Ok(self)
    }

    /// Adds an implemented/extended interface by name.
    ///
    /// # Errors
    ///
    /// Propagates resolution and hierarchy errors.
    pub fn implements(&mut self, name: &str) -> Result<&mut Self, ApiError> {
        let iface = self.api.types().resolve(name)?;
        self.api.types_mut().add_interface(self.ty, iface)?;
        Ok(self)
    }

    /// Adds a public constructor with the given parameter type names.
    ///
    /// # Errors
    ///
    /// Propagates resolution and duplicate-member errors.
    pub fn ctor(&mut self, params: &[&str]) -> Result<&mut Self, ApiError> {
        let params = self.parse_params(params)?;
        self.api.add_method(MethodDef {
            name: "<init>".to_owned(),
            declaring: self.ty,
            params,
            param_names: Vec::new(),
            ret: self.ty,
            visibility: Visibility::Public,
            is_static: false,
            is_constructor: true,
        })?;
        Ok(self)
    }

    /// Adds a public instance method.
    ///
    /// # Errors
    ///
    /// Propagates resolution and duplicate-member errors.
    pub fn method(&mut self, name: &str, params: &[&str], ret: &str) -> Result<&mut Self, ApiError> {
        self.add(name, params, ret, Visibility::Public, false)
    }

    /// Adds a public static method.
    ///
    /// # Errors
    ///
    /// Propagates resolution and duplicate-member errors.
    pub fn static_method(
        &mut self,
        name: &str,
        params: &[&str],
        ret: &str,
    ) -> Result<&mut Self, ApiError> {
        self.add(name, params, ret, Visibility::Public, true)
    }

    /// Adds a protected instance method (for exercising the §7 visibility
    /// rules).
    ///
    /// # Errors
    ///
    /// Propagates resolution and duplicate-member errors.
    pub fn protected_method(
        &mut self,
        name: &str,
        params: &[&str],
        ret: &str,
    ) -> Result<&mut Self, ApiError> {
        self.add(name, params, ret, Visibility::Protected, false)
    }

    /// Adds a public instance field.
    ///
    /// # Errors
    ///
    /// Propagates resolution and duplicate-member errors.
    pub fn field(&mut self, name: &str, ty: &str) -> Result<&mut Self, ApiError> {
        let ty = self.api.parse_type(ty)?;
        self.api.add_field(FieldDef {
            name: name.to_owned(),
            declaring: self.ty,
            ty,
            visibility: Visibility::Public,
            is_static: false,
        })?;
        Ok(self)
    }

    /// Adds a public static field.
    ///
    /// # Errors
    ///
    /// Propagates resolution and duplicate-member errors.
    pub fn static_field(&mut self, name: &str, ty: &str) -> Result<&mut Self, ApiError> {
        let ty = self.api.parse_type(ty)?;
        self.api.add_field(FieldDef {
            name: name.to_owned(),
            declaring: self.ty,
            ty,
            visibility: Visibility::Public,
            is_static: true,
        })?;
        Ok(self)
    }

    fn add(
        &mut self,
        name: &str,
        params: &[&str],
        ret: &str,
        visibility: Visibility,
        is_static: bool,
    ) -> Result<&mut Self, ApiError> {
        let params = self.parse_params(params)?;
        let ret = self.api.parse_type(ret)?;
        self.api.add_method(MethodDef {
            name: name.to_owned(),
            declaring: self.ty,
            params,
            param_names: Vec::new(),
            ret,
            visibility,
            is_static,
            is_constructor: false,
        })?;
        Ok(self)
    }

    fn parse_params(&mut self, params: &[&str]) -> Result<Vec<TyId>, ApiError> {
        params.iter().map(|p| self.api.parse_type(p)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ApiLoader;

    #[test]
    fn fluent_construction() {
        let mut api = ApiLoader::with_prelude().finish().unwrap();
        api.interface("u", "IBase").unwrap();
        api.class("u", "Base").unwrap().implements("IBase").unwrap();
        api.class("u", "Derived")
            .unwrap()
            .extends("Base")
            .unwrap()
            .ctor(&["String"])
            .unwrap()
            .method("sibling", &["Derived", "int"], "Base")
            .unwrap()
            .static_method("make", &[], "Derived")
            .unwrap()
            .protected_method("inner", &[], "Base")
            .unwrap()
            .field("data", "Object")
            .unwrap()
            .static_field("ALL", "Derived[]")
            .unwrap();

        let derived = api.types().resolve("Derived").unwrap();
        let base = api.types().resolve("Base").unwrap();
        let ibase = api.types().resolve("IBase").unwrap();
        assert!(api.types().is_subtype(derived, base));
        assert!(api.types().is_subtype(derived, ibase));
        assert_eq!(api.lookup_constructor(derived, 1).len(), 1);
        assert_eq!(api.lookup_instance_method(derived, "sibling", 2).len(), 1);
        assert_eq!(api.lookup_static_method(derived, "make", 0).len(), 1);
        let inner = api.lookup_instance_method(derived, "inner", 0)[0];
        assert_eq!(api.method(inner).visibility(), Visibility::Protected);
        let all = api.lookup_field(derived, "ALL").unwrap();
        assert!(api.field(all).is_static());
    }

    #[test]
    fn interface_extends_goes_to_interface_list() {
        let mut api = ApiLoader::with_prelude().finish().unwrap();
        api.interface("u", "IA").unwrap();
        api.interface("u", "IB").unwrap().extends("IA").unwrap();
        let ia = api.types().resolve("IA").unwrap();
        let ib = api.types().resolve("IB").unwrap();
        assert!(api.types().is_subtype(ib, ia));
    }

    #[test]
    fn parse_type_handles_arrays_prims_void() {
        let mut api = ApiLoader::with_prelude().finish().unwrap();
        assert_eq!(api.parse_type("void").unwrap(), api.types().void());
        assert_eq!(
            api.parse_type("int").unwrap(),
            api.types().prim(jungloid_typesys::Prim::Int)
        );
        let arr = api.parse_type("String[][]").unwrap();
        let jungloid_typesys::Ty::Array(inner) = api.types().ty(arr) else { panic!() };
        assert!(matches!(api.types().ty(inner), jungloid_typesys::Ty::Array(_)));
        assert!(api.parse_type("Nope").is_err());
    }

    #[test]
    fn builder_errors_propagate() {
        let mut api = ApiLoader::with_prelude().finish().unwrap();
        api.class("u", "A").unwrap();
        assert!(api.class("u", "A").is_err()); // duplicate
        let mut b = api.class("u", "B").unwrap();
        assert!(b.extends("Nope").is_err());
        assert!(b.method("m", &["Nope"], "A").is_err());
    }
}
